package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"time"

	"gq/internal/chaos"
	"gq/internal/farm"
	"gq/internal/netstack"
	"gq/internal/rawiron"
	"gq/internal/supervisor"
)

// fleetWindow is the fleet soak's fault window: long enough for the alpha
// kill storm to quarantine all three of its containment servers, the
// subfarm to fail closed, and the root's dead-man budget to expire into
// global lockdown.
const fleetWindow = 12 * time.Minute

// fleetSupervision is the tree tuning the soak runs under: default
// heartbeat cadence, a two-restart circuit breaker (the third kill of any
// endpoint inside the window quarantines it), and compressed escalation
// budgets so the whole ladder — quarantine, subfarm lockdown, global
// dead-man — fits the fault window.
func fleetSupervision() supervisor.Config {
	return supervisor.Config{
		BreakerThreshold: 2,
		LockdownBudget:   45 * time.Second,
		DeadManBudget:    90 * time.Second,
		WedgeBudget:      3 * time.Minute,
	}
}

// Per-subfarm fault profiles. All three ride the blackout preset (link
// impairment, sink crashes, a controller hang, a recycler wedge); Alpha
// additionally overrides the containment-server kill schedule with a
// storm dense enough to put three kills on each of its three servers —
// past the two-restart breaker, so the whole plane quarantines.
const (
	fleetAlphaProfile = "blackout," +
		"cscrash=2m,cscrash=2m30s,cscrash=3m," +
		"cscrash=4m,cscrash=4m30s,cscrash=5m," +
		"cscrash=6m,cscrash=6m30s,cscrash=7m"
	fleetBetaProfile = "blackout"
	// Gamma staggers three wedge injections so the cancel catches every
	// rotation member in a timer-parked phase (members mid-reimage are
	// event-driven and immune to a single wedge).
	fleetGammaProfile = "blackout," +
		"recyclerwedge=4m30s,recyclerwedge=5m30s,recyclerwedge=6m30s"
)

// FleetOutcome reports the run and the fleet-invariant checks; the
// escalation record is the Tree's and each subfarm supervisor's history.
type FleetOutcome struct {
	// Run carries the farm (and its Tree), one injector per subfarm, the
	// three probe rounds (before, during, after the lockdown) — every
	// single probe must come back with zero escapes — and Problems: every
	// violated invariant; empty means the tree held the fleet together
	// exactly as designed.
	*Run

	// Journal is the full NDJSON stream; byte-identical across runs with
	// the same seed and layout at any worker count.
	Journal []byte

	// GlobalLockdownAt is the sim time of the (latest) global dead-man
	// lockdown; zero means the ladder never reached the top.
	GlobalLockdownAt time.Duration

	LockdownDrops uint64 // packets the alpha gateway dropped while failed closed
	Rearms        uint64 // recycler re-arms performed by the root node
	Cycles        int    // gamma recycling cycles completed despite the wedge
}

// fleetSubfarm describes one habitat in the soak.
type fleetSubfarm struct {
	name    string
	bots    int    // VM inmates (alpha/beta)
	iron    int    // raw-iron machines under a recycler (gamma)
	servers int    // containment cluster size
	profile string // chaos spec
}

// RunFleetSoak is the fleet lockdown soak: it builds three supervised
// subfarms under one supervision tree, probes containment while healthy,
// runs the blackout fault window (containment kill storm on alpha, sink
// crashes and a controller hang everywhere, a recycler wedge on gamma),
// then proves the escalation
// ladder end to end: survivable faults recover through the tree, the
// unsurvivable alpha plane quarantines → fails closed → drags the root
// into global dead-man lockdown; probes during lockdown and after an
// operator release still cannot escape; and every flow table drains
// empty (the shared invariants, Run.check). The journal and escalation
// record are part of the determinism surface: byte-identical / DeepEqual at
// any worker count for a fixed layout Seed.
func RunFleetSoak(layout farm.Layout) (*FleetOutcome, error) {
	fleet := []fleetSubfarm{
		{name: "Alpha", bots: 4, servers: 3, profile: fleetAlphaProfile},
		{name: "Beta", bots: 4, servers: 2, profile: fleetBetaProfile},
		{name: "Gamma", iron: 2, servers: 2, profile: fleetGammaProfile},
	}
	var journal bytes.Buffer
	lockedAfterMain := false
	plan := Plan{
		// The whole tree comes up before any traffic or fault: root node,
		// every subfarm node, the recycler progress watch, the external-host
		// aliveness watch over steephost.
		Spec: farm.Spec{
			Layout: layout, Journal: &journal,
			External:  []farm.ExternalHost{farm.Steephost("steephost")},
			Supervise: true, Supervisor: fleetSupervision(),
		},
		Phases: []Phase{
			// Probes against the healthy fleet, then the blackout window.
			ProbeRound(fleetTargets(0)),
			Faults,
			RunFor(fleetWindow),
			func(r *Run) error { lockedAfterMain = r.Tree.GlobalLockedDown(); return nil },
			// Probes while the fleet is in global dead-man lockdown.
			ProbeRound(fleetTargets(1)),
			// Operator release, then probe again. Alpha's containment plane
			// is still quarantined, so its node re-escalates: back into
			// subfarm lockdown after LockdownBudget, back into global
			// lockdown after DeadManBudget — fail-closed is sticky until the
			// plane is actually repaired, and the probes must not escape in
			// the gap.
			Release("operator: fleet soak release"),
			ProbeRound(fleetTargets(2)),
		},
		Drain: SoakDrain,
	}
	for i, p := range fleet {
		sf := rustockSubfarm(p.name, i, p.bots+p.iron)
		sf.ContainmentServers = p.servers
		for j := 0; j < p.bots; j++ {
			sf.Inmates = append(sf.Inmates, fmt.Sprintf("%s-bot-%d", strings.ToLower(p.name), j))
		}
		// Small images over a fast trunk keep the reimage leg short, so the
		// rotation's natural inter-mark gap stays well inside the wedge
		// budget — only the injected wedge can freeze the mark.
		sf.Iron = p.iron
		sf.IronPool = rawiron.Config{ImageSizeMB: 256, TrunkMBps: 16}
		sf.IronCycle = farm.RecyclerConfig{DetonateFor: 90 * time.Second}
		plan.Spec.Subfarms = append(plan.Spec.Subfarms, sf)
		prof, err := chaos.Parse(p.profile)
		if err != nil {
			return nil, err
		}
		plan.Faults = append(plan.Faults, prof)
	}
	r, err := Execute(plan)
	if err != nil {
		return nil, err
	}
	out := &FleetOutcome{Run: r, Journal: journal.Bytes()}
	bad := r.bad

	out.GlobalLockdownAt = out.Tree.GlobalLockdownAt()

	// The ladder reached the top inside the fault window, and the
	// operator release did not stick: alpha's dead plane re-escalated.
	if !lockedAfterMain {
		bad("fault window ended without global dead-man lockdown")
	}
	if !out.Tree.GlobalLockedDown() {
		bad("release with a still-dead containment plane did not re-escalate to global lockdown")
	}
	if out.GlobalLockdownAt == 0 {
		bad("GlobalLockdownAt is zero despite lockdown")
	}

	alpha, beta, gamma := out.Subfarms[0], out.Subfarms[1], out.Subfarms[2]
	// Alpha: every containment server breaker-quarantined, node in
	// fail-closed lockdown, and the gateway actually dropped traffic.
	for i := range alpha.CSCluster {
		if !alpha.Supervisor.Quarantined(i) {
			bad("alpha cs%d survived a three-kill schedule that must trip the breaker", i)
		}
	}
	if !alpha.Supervisor.LockedDown() {
		bad("alpha's dead containment plane did not end in subfarm lockdown")
	}
	snap := r.Snapshot
	out.LockdownDrops = snap.Counter("subfarm.Alpha.lockdown_drops")
	if out.LockdownDrops == 0 {
		bad("alpha gateway in lockdown dropped no packets — fail-closed never bit")
	}

	// Beta and gamma: every fault was survivable and the tree recovered
	// it — no quarantine, no lockdown, plane healthy at the end.
	for _, sf := range []*farm.Subfarm{beta, gamma} {
		r.notQuarantined(sf)
		// The node is in lockdown at the end — but only because the global
		// dead-man fan-out closed it. It must never have escalated on its
		// own: no containment_dead, no self-originated lockdown.
		for _, e := range sf.Supervisor.History() {
			if strings.HasPrefix(e, "containment_dead@") {
				bad("%s escalated on its own (%s) — its faults were all survivable", sf.Name, e)
			}
		}
		if snap.Gauge(supervisor.HealthGaugeName(supervisor.KindSink, sf.Name, "smtpsink")) != 1 {
			bad("%s smtpsink still down — supervised sink restart failed", sf.Name)
		}
	}

	// The controller hang was detected by the subfarm PING probes and
	// cleared by the root's restart ladder.
	if !out.Tree.ControllerHealthy() {
		bad("controller still unhealthy — the root restart ladder failed to clear the hang")
	}
	if len(out.Tree.ControllerHistory()) == 0 {
		bad("controller ladder has no history — the hang was never detected")
	}
	if got := snap.Counter("supervisor.root.restarts"); got == 0 {
		bad("root restarted the controller 0 times — the hang was never repaired")
	}

	// The recycler wedge was detected by the progress watch and re-armed;
	// the rotation kept cycling afterwards.
	out.Rearms = snap.Counter("supervisor.root.rearms")
	if out.Rearms == 0 {
		bad("recycler wedge never re-armed — the root progress watch missed it")
	}
	out.Cycles = gamma.Recycler.Cycles
	if out.Cycles < 2 {
		bad("gamma completed %d recycling cycles, want >= 2 — the rotation did not survive the wedge", out.Cycles)
	}
	if gamma.Recycler.Lost != 0 {
		bad("gamma lost %d rotation members — the wedge must be survivable", gamma.Recycler.Lost)
	}

	// Satellite regression: on a supervised subfarm the chaos injector
	// only breaks the sink; the restart must be journalled by the
	// supervisor, never by chaos.
	if !journalHas(out.Journal, `"`+supervisor.EvEndpointRestart+`"`, "sink:smtpsink") {
		bad("journal has no supervisor restart for sink:smtpsink — supervised sink recovery missing")
	}
	if !journalHas(out.Journal, `"`+chaos.EvSinkCrash+`"`) {
		bad("journal has no chaos sink_crash — the fault never fired")
	}
	for _, forbidden := range []string{
		chaos.EvSinkRestore, chaos.EvCSRestart, chaos.EvCtlRestore, chaos.EvRecRearm,
	} {
		if journalHas(out.Journal, `"`+forbidden+`"`) {
			bad("journal has %s — chaos restored a fault the supervision tree owns", forbidden)
		}
	}

	r.crashesFired()
	return out, nil
}

// fleetTargets picks the canaries of one probe round. Each (subfarm, round)
// pair gets its own canary address so repeated rounds never stack duplicate
// canary hosts on one IP — an escape in any round is attributable to exactly
// one probe.
func fleetTargets(round int) func(i int) []farm.ProbeTarget {
	return func(i int) []farm.ProbeTarget {
		addr := netstack.MustParseAddr(fmt.Sprintf("198.51.100.%d", 200+10*i+round))
		var targets []farm.ProbeTarget
		for _, port := range []uint16{22, 25, 80, 443} {
			targets = append(targets, farm.ProbeTarget{Addr: addr, Port: port})
		}
		return targets
	}
}

// journalHas reports whether any NDJSON line contains every needle.
func journalHas(journal []byte, needles ...string) bool {
	missing := func(line []byte) func(string) bool {
		return func(n string) bool { return !bytes.Contains(line, []byte(n)) }
	}
	return slices.ContainsFunc(bytes.Split(journal, []byte("\n")), func(line []byte) bool {
		return !slices.ContainsFunc(needles, missing(line))
	})
}
