package supervisor

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"gq/internal/host"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/sim"
)

// fakeRouter stands in for the gateway: a heartbeat is echoed (1 ms later)
// while the containment server is alive, and every health, fail-close and
// lockdown call is recorded.
type fakeRouter struct {
	s        *sim.Simulator
	alive    []bool
	observer func(idx int, seq uint64)

	dispatch   map[int]bool // last SetEndpointHealth per endpoint
	failClosed []string     // FailCloseEndpoint reasons, in order
	lockdowns  []string     // "on <reason>" / "off <reason>"
}

func (r *fakeRouter) SetHealthObserver(fn func(int, uint64)) { r.observer = fn }
func (r *fakeRouter) SendHealthProbe(idx int, seq uint64) {
	if r.alive[idx] {
		r.s.Schedule(time.Millisecond, func() { r.observer(idx, seq) })
	}
}
func (r *fakeRouter) SetEndpointHealth(idx int, healthy bool) { r.dispatch[idx] = healthy }
func (r *fakeRouter) FailCloseEndpoint(idx int, reason string) int {
	r.failClosed = append(r.failClosed, reason)
	return 3
}
func (r *fakeRouter) SetLockdown(on bool, reason string) int {
	if on {
		r.lockdowns = append(r.lockdowns, "on "+reason)
		return 7
	}
	r.lockdowns = append(r.lockdowns, "off "+reason)
	return 0
}

// testNode builds a subfarm node over a fake router with n containment
// servers, all alive, none with a working restart yet.
func testNode(s *sim.Simulator, name string, n int, cfg Config) (*Supervisor, *fakeRouter) {
	fr := &fakeRouter{s: s, alive: make([]bool, n), dispatch: make(map[int]bool)}
	sup := newSupervisor(Deps{Sim: s, Router: fr, Name: name}, cfg)
	for i := 0; i < n; i++ {
		fr.alive[i] = true
		sup.watchCS(i, 0, func() {})
	}
	return sup, fr
}

// find returns the node's watch of the given kind and id.
func (n *node) find(kind Kind, id string) *watch {
	for _, w := range n.watches {
		if w.kind == kind && w.id == id {
			return w
		}
	}
	return nil
}

// eventLog is a journal sink that keeps every event.
type eventLog []obs.Event

func (l *eventLog) WriteEvent(e obs.Event) error {
	*l = append(*l, e)
	return nil
}

// record makes s's journal keep every event in the log it returns.
func record(s *sim.Simulator) *eventLog {
	l := new(eventLog)
	s.Obs().Journal.SetSink(l)
	return l
}

// history reads w's health history off the journal: "down@26s" for each
// transition node n journalled about it.
func (l *eventLog) history(n *node, w *watch) []string {
	var out []string
	for _, e := range *l {
		if e.Scope != n.sc.Name || e.Detail != w.label && !strings.HasPrefix(e.Detail, w.label+" ") {
			continue
		}
		for t, typ := range w.events {
			if e.Type == typ {
				out = append(out, string(t)+"@"+e.T.String())
			}
		}
	}
	return out
}

func kinds(history []string) []string {
	out := make([]string, len(history))
	for i, h := range history {
		out[i], _, _ = strings.Cut(h, "@")
	}
	return out
}

// K missed heartbeats take a containment server down (out of dispatch, its
// flows failed closed), one backed-off restart is attempted, and only the
// next answered probe — not the restart itself — marks it up again.
func TestProbeMissRestartRecover(t *testing.T) {
	s := sim.New(1)
	log := record(s)
	sup, fr := testNode(s, "t", 1, Config{})
	w := sup.cs[0]
	restarts := 0
	w.restart = func() { restarts++; fr.alive[0] = true }

	s.RunUntil(12 * time.Second)
	if h := log.history(&sup.node, w); !sup.Healthy(0) || len(h) != 0 {
		t.Fatalf("healthy server has history %v", h)
	}
	fr.alive[0] = false
	// Probes at 15, 20, 25 s go unanswered; the third deadline is 26 s.
	s.RunUntil(26*time.Second - time.Nanosecond)
	if !sup.Healthy(0) {
		t.Fatal("down before the K-th missed deadline")
	}
	s.RunUntil(26 * time.Second)
	if sup.Healthy(0) || fr.dispatch[0] || w.gauge.Value() != 0 {
		t.Fatal("three misses did not take the server down and out of dispatch")
	}
	if !reflect.DeepEqual(fr.failClosed, []string{"containment server down"}) {
		t.Fatalf("fail-close calls %v", fr.failClosed)
	}
	// First rung: 5 s backoff plus up to 50% jitter.
	s.RunUntil(31*time.Second - time.Nanosecond)
	if restarts != 0 {
		t.Fatal("restart fired inside the backoff")
	}
	s.RunUntil(33*time.Second + 500*time.Millisecond)
	if restarts != 1 || sup.Healthy(0) {
		t.Fatalf("restarts=%d healthy=%v: want one restart, health not assumed", restarts, sup.Healthy(0))
	}
	s.RunUntil(36 * time.Second)
	h := log.history(&sup.node, w)
	if got := kinds(h); !reflect.DeepEqual(got, []string{"down", "restart", "up"}) {
		t.Fatalf("history %v", h)
	}
	if h[0] != "down@26s" || h[2] != "up@35.001s" {
		t.Fatalf("history %v, want down@26s … up@35.001s", h)
	}
	if !sup.Healthy(0) || !fr.dispatch[0] || w.gauge.Value() != 1 {
		t.Fatal("answered probe did not restore health and dispatch")
	}
	if want := []time.Duration{9*time.Second + time.Millisecond}; !reflect.DeepEqual(sup.Recoveries, want) {
		t.Fatalf("recoveries %v, want %v", sup.Recoveries, want)
	}
	// The lone server was the whole plane: the lockdown clock started, and
	// the recovery inside LockdownBudget stopped it.
	s.RunUntil(10 * time.Minute)
	if want := []string{"containment_dead@26s"}; !reflect.DeepEqual(sup.History(), want) || sup.LockedDown() {
		t.Fatalf("history %v locked=%v, want %v and no lockdown", sup.History(), sup.LockedDown(), want)
	}
}

// A subfarm node only detects a dead controller; the root restarts it, on
// one ladder however many nodes report, and takes the subfarm's word for
// the recovery.
func TestControllerReportFeedsRootLadder(t *testing.T) {
	s := sim.New(1)
	alive, restarts := true, 0
	root := NewRoot(RootDeps{
		Sim: s, ControllerHost: new(host.Host),
		RestartController: func() { restarts++; alive = true },
	}, Config{})
	var nodes []*Supervisor
	for _, name := range []string{"a", "b"} {
		sup, _ := testNode(s, name, 0, Config{})
		w := sup.watchController(root, 0)
		w.probe = func(seq uint64) {
			if alive {
				s.Schedule(time.Millisecond, func() { sup.probeReply(w, seq) })
			}
		}
		nodes = append(nodes, sup)
	}

	s.RunUntil(12 * time.Second)
	alive = false
	s.RunUntil(26 * time.Second)
	if root.ControllerHealthy() {
		t.Fatal("root did not take the controller down on the subfarm reports")
	}
	if nodes[0].find(KindController, "controller").restart != nil {
		t.Fatal("subfarm node holds restart authority over the controller")
	}
	s.RunUntil(36 * time.Second)
	if restarts != 1 {
		t.Fatalf("two reporting nodes caused %d restarts, want 1", restarts)
	}
	if !root.ControllerHealthy() {
		t.Fatal("subfarm up-report did not mark the controller up")
	}
	if got := kinds(root.ControllerHistory()); !reflect.DeepEqual(got, []string{"down", "restart", "up"}) {
		t.Fatalf("controller history %v", root.ControllerHistory())
	}
	want := []string{"controller:controller_down@26s by a", "controller:controller_up@35.001s by a"}
	if !reflect.DeepEqual(root.History(), want) {
		t.Fatalf("root history %v, want %v", root.History(), want)
	}
	s.RunUntil(10 * time.Minute)
	if root.GlobalLockedDown() {
		t.Fatal("dead-man fired for a controller that recovered inside the budget")
	}
}

// The whole ladder: a containment server no restart can revive trips its
// breaker and is quarantined; the plane dead past LockdownBudget fails the
// subfarm closed; the lockdown standing past DeadManBudget fails every
// attached subfarm closed; and an operator release does not stick while
// the plane is still dead.
func TestEscalationLadder(t *testing.T) {
	cfg := Config{BreakerThreshold: 2, LockdownBudget: 45 * time.Second, DeadManBudget: 90 * time.Second}
	s := sim.New(1)
	log := record(s)
	root := NewRoot(RootDeps{Sim: s}, cfg)
	sick, sickRouter := testNode(s, "sick", 1, cfg)
	well, wellRouter := testNode(s, "well", 1, cfg)
	root.Attach(sick)
	root.Attach(well)

	s.RunUntil(12 * time.Second)
	sickRouter.alive[0] = false
	s.RunUntil(5 * time.Minute)

	w := sick.cs[0]
	if h := log.history(&sick.node, w); !reflect.DeepEqual(kinds(h), []string{"down", "restart", "restart", "quarantined"}) {
		t.Fatalf("history %v, want two restarts then the breaker", h)
	}
	if !sick.Quarantined(0) || w.restartPend {
		t.Fatal("quarantined server is still being restarted")
	}
	if want := []string{"containment server down", "containment server quarantined"}; !reflect.DeepEqual(sickRouter.failClosed, want) {
		t.Fatalf("fail-close calls %v, want %v", sickRouter.failClosed, want)
	}
	probesAtQuarantine := w.seq
	wantSick := []string{
		"containment_dead@26s",
		"lockdown@1m11s containment plane dead past budget",
	}
	if !reflect.DeepEqual(sick.History(), wantSick) {
		t.Fatalf("sick history %v, want %v", sick.History(), wantSick)
	}
	wantRoot := []string{
		"subfarm_lockdown@1m11s sick",
		"global_lockdown@2m41s subfarm sick locked down past budget",
		"subfarm_lockdown@2m41s well",
	}
	if !reflect.DeepEqual(root.History(), wantRoot) {
		t.Fatalf("root history %v, want %v", root.History(), wantRoot)
	}
	if root.GlobalLockdownAt() != 161*time.Second || !well.LockedDown() {
		t.Fatalf("global lockdown at %v, well locked=%v", root.GlobalLockdownAt(), well.LockedDown())
	}
	if want := []string{"on subfarm lockdown: dead-man: subfarm sick locked down past budget"}; !reflect.DeepEqual(wellRouter.lockdowns, want) {
		t.Fatalf("well router lockdowns %v", wellRouter.lockdowns)
	}
	if h := log.history(&well.node, well.cs[0]); len(h) != 0 {
		t.Fatalf("healthy server has history %v", h)
	}

	// Release is not forgiveness: the well subfarm reopens for good, the
	// sick one restarts its clock from the release and climbs again.
	root.Release("operator")
	if well.LockedDown() || sick.LockedDown() || root.GlobalLockedDown() {
		t.Fatal("release left a lockdown engaged")
	}
	s.RunUntil(8 * time.Minute)
	wantSick = append(wantSick,
		"release@5m0s global release: operator",
		"containment_dead@5m0s",
		"lockdown@5m45s containment plane dead past budget")
	if !reflect.DeepEqual(sick.History(), wantSick) {
		t.Fatalf("sick history after release %v, want %v", sick.History(), wantSick)
	}
	if !root.GlobalLockedDown() || root.GlobalLockdownAt() != 7*time.Minute+15*time.Second {
		t.Fatalf("re-escalation: global=%v at %v, want 7m15s", root.GlobalLockedDown(), root.GlobalLockdownAt())
	}
	if w.seq != probesAtQuarantine {
		t.Fatal("a quarantined server is still being probed")
	}
	if got := well.History(); len(got) != 3 || !strings.HasPrefix(got[2], "lockdown@7m15s dead-man:") {
		t.Fatalf("well history %v", got)
	}
}

// The root's polled watches: a recycler whose mark freezes while active is
// re-armed once per wedge, at once and without backoff, until the breaker
// quarantines it; a shard host is watched, never restarted.
func TestRootPolledWatches(t *testing.T) {
	cfg := Config{BreakerThreshold: 2, WedgeBudget: time.Minute}
	s := sim.New(1)
	log := record(s)
	root := NewRoot(RootDeps{Sim: s}, cfg)
	mark, active, rearms := 0, true, 0
	root.WatchProgress(KindRecycler, "gamma", s, func() (int, bool) { return mark, active }, func() { rearms++ })
	h := host.New(s, "ext", netstack.MAC{2})
	root.WatchHost(KindShard, "ext", h)
	rec, ext := root.find(KindRecycler, "gamma"), root.find(KindShard, "ext")

	// Progressing, then idle: neither is a wedge.
	for i := 1; i <= 6; i++ {
		s.RunUntil(time.Duration(i) * time.Minute)
		mark++
	}
	active = false
	s.RunUntil(12 * time.Minute)
	if !rec.healthy || rearms != 0 {
		t.Fatal("an idle or advancing recycler was declared wedged")
	}
	// Active and frozen: wedged once the budget is past, re-armed at once.
	active = true
	s.RunUntil(14*time.Minute + 30*time.Second)
	if rec.healthy || rearms != 1 {
		t.Fatalf("healthy=%v rearms=%d after a frozen mark past the budget", rec.healthy, rearms)
	}
	s.RunUntil(17 * time.Minute)
	if rearms != 1 {
		t.Fatalf("one wedge earned %d re-arms", rearms)
	}
	// Two more wedges inside the ten-minute breaker window: the second
	// re-arm is the breaker's last, the third wedge quarantines.
	for i := 0; i < 2; i++ {
		mark++
		s.RunFor(time.Minute)
		if !rec.healthy {
			t.Fatal("an advancing mark did not clear the wedge")
		}
		s.RunFor(2 * time.Minute)
	}
	if rearms != 2 || !rec.quarantined {
		t.Fatalf("rearms=%d quarantined=%v, want 2 and the breaker tripped", rearms, rec.quarantined)
	}
	if h := log.history(&root.node, rec); !reflect.DeepEqual(kinds(h),
		[]string{"down", "restart", "up", "down", "restart", "up", "down", "quarantined"}) {
		t.Fatalf("recycler history %v", h)
	}

	h.Shutdown()
	s.RunFor(time.Minute)
	h.Reset()
	s.RunFor(time.Minute)
	if h := log.history(&root.node, ext); !reflect.DeepEqual(kinds(h), []string{"down", "up"}) {
		t.Fatalf("shard host history %v", h)
	}
	if want := map[string]int{"recycler": 1, "shard": 1}; !reflect.DeepEqual(root.WatchCounts(), want) {
		t.Fatalf("watch counts %v, want %v", root.WatchCounts(), want)
	}
}
