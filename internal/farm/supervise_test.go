package farm

import (
	"slices"
	"strings"
	"testing"
	"time"

	"gq/internal/supervisor"
)

// superviseFarm builds the probe farm under the supervision tree at the
// default cadence (probes every 5 s, a 1 s deadline, K=3, restarts after 5 s
// plus up to 50 % jitter) with a two-restart circuit breaker.
func superviseFarm(t *testing.T) (*Farm, *Subfarm, *supervisor.Supervisor) {
	t.Helper()
	f, sf := probeFarm(t, "DefaultDeny")
	f.SuperviseTree(supervisor.Config{BreakerThreshold: 2})
	return f, sf, sf.Supervisor
}

// A crashed containment server must be detected by missed heartbeats and
// brought back by a supervised restart — health confirmed by a live echo,
// not assumed.
func TestSupervisorRestartsCrashedCS(t *testing.T) {
	f, sf, sup := superviseFarm(t)
	f.Run(10 * time.Second)
	if !sup.Healthy(0) {
		t.Fatal("endpoint unhealthy before any fault")
	}
	sf.CS.Host.Shutdown()
	// Three missed probes (ticks at 15s, 20s and 25s, each with a 1s
	// deadline) mark the endpoint down at 26s; the first restart can fire
	// no earlier than 31s (backoff 5s), so at 30s the crash is detected but
	// not yet healed.
	f.Run(20 * time.Second)
	if sup.Healthy(0) {
		t.Fatal("crash not detected: endpoint still marked healthy")
	}
	f.Run(30 * time.Second)
	if !sup.Healthy(0) {
		t.Fatal("supervised restart did not bring the endpoint back")
	}
	if len(sup.Recoveries) != 1 {
		t.Fatalf("recoveries = %v, want exactly one", sup.Recoveries)
	}
	var hist []string
	if d := f.Sim.Obs().Journal.DumpScope("supervisor."+sf.Name, "post-run"); d != nil {
		for _, e := range d.Events {
			if e.Detail == "cs0" {
				hist = append(hist, e.Type)
			}
		}
	}
	if want := []string{supervisor.EvCSDown, supervisor.EvCSRestart, supervisor.EvCSUp}; !slices.Equal(hist, want) {
		t.Fatalf("journalled health history of cs0 %v, want %v", hist, want)
	}
}

// Repeated crashes within the breaker window must trip the circuit breaker:
// the endpoint is quarantined — no more redial attempts — instead of being
// restarted forever.
func TestSupervisorBreakerQuarantine(t *testing.T) {
	f, sf, sup := superviseFarm(t)
	// Three kills with full recovery in between: with BreakerThreshold=2
	// the third restart attempt finds two recent restarts and quarantines.
	for i := 0; i < 3; i++ {
		f.Run(time.Minute)
		sf.CS.Host.Shutdown()
	}
	f.Run(time.Minute)
	if !sup.Quarantined(0) {
		t.Fatal("circuit breaker did not quarantine the flapping endpoint")
	}
	if sup.Healthy(0) {
		t.Fatal("quarantined endpoint still marked healthy")
	}
	// Quarantine is terminal: no further restarts, the host stays down.
	f.Run(2 * time.Minute)
	if sup.Healthy(0) {
		t.Fatal("quarantined endpoint was restarted anyway")
	}
}

// Repeated containment-probe escapes must quarantine the offending inmate
// through the farm controller, exactly once.
func TestSupervisorInmateQuarantine(t *testing.T) {
	f, sf, sup := superviseFarm(t)
	probe, err := sf.AddInmate("striker")
	if err != nil {
		t.Fatal(err)
	}
	f.Run(5 * time.Second)
	vlan := probe.VLAN
	for i := 0; i < 3; i++ {
		sup.Strike(vlan, "probe-escape")
	}
	if got := f.Sim.Obs().Snapshot().Counter("supervisor.probe.inmate_quarantines"); got != 1 {
		t.Fatalf("three escape strikes made %d quarantines, want 1", got)
	}
	// Further strikes are no-ops once quarantined.
	sup.Strike(vlan, "probe-escape")
	f.Run(5 * time.Second)
	snap := f.Sim.Obs().Snapshot()
	if got := snap.Counter("supervisor.probe.inmate_quarantines"); got != 1 {
		t.Fatalf("inmate_quarantines = %d, want exactly 1", got)
	}
}

// A hung controller is repaired by the tree's breaker-guarded root ladder:
// the subfarm's PING probe detects the hang, the root power-cycles the
// controller once, and the next PONG is the recovery.
func TestSupervisorRestartsHungController(t *testing.T) {
	f, sf, sup := superviseFarm(t)
	probeHealthy := func() bool {
		name := supervisor.HealthGaugeName(supervisor.KindController, sf.Name, "controller")
		return f.Sim.Obs().Snapshot().Gauge(name) == 1
	}
	f.Run(10 * time.Second)
	if !probeHealthy() {
		t.Fatal("controller unhealthy before any fault")
	}
	f.Controller.SetHung(true)
	// The probes of 10 s, 15 s and 20 s go unanswered (K=3): down at the
	// 21 s deadline, reported to the root, whose first rung is 5–7.5 s.
	f.Run(12 * time.Second)
	if probeHealthy() || f.Tree.ControllerHealthy() {
		t.Fatal("hang not detected by the PING probe")
	}
	f.Run(30 * time.Second)
	if !probeHealthy() || !f.Tree.ControllerHealthy() {
		t.Fatalf("controller not repaired: root history %v", f.Tree.ControllerHistory())
	}
	hist := f.Tree.ControllerHistory()
	if len(hist) != 3 || hist[0] != "down@21s" || !strings.HasPrefix(hist[1], "restart@") || !strings.HasPrefix(hist[2], "up@") {
		t.Fatalf("root controller history %v, want down@21s, one restart, up", hist)
	}
	snap := f.Sim.Obs().Snapshot()
	if got := snap.Counter("supervisor.root.restarts"); got != 1 {
		t.Fatalf("supervisor.root.restarts = %d, want exactly 1", got)
	}
	if sup.LockedDown() || f.Tree.GlobalLockedDown() {
		t.Fatal("a repaired controller hang escalated to lockdown")
	}
}
