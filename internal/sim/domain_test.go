package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gq/internal/obs"
)

// pingPongTrace runs a 3-domain ping-pong workload under the given worker
// count and returns a deterministic trace of every callback execution.
// postTo schedules fn on dst after delay d of virtual time: Schedule within
// one simulator; across domains the delay is clamped up to the lookahead
// and fn arrives through the coordinator's merge, as a Hop's does.
func postTo(s, dst *Simulator, d time.Duration, fn func()) {
	if dst == s {
		s.Schedule(d, fn)
		return
	}
	s.post(dst, d, crossMsg{fn: fn})
}

func pingPongTrace(t *testing.T, workers int) []string {
	t.Helper()
	root := New(42)
	c := NewCoordinator(root, 10*time.Millisecond, workers)
	a, b := c.NewDomain(), c.NewDomain()

	// Per-shard traces: each is appended only from its own domain's
	// goroutine, so recording is race-free and the per-shard order is the
	// deterministic quantity to compare.
	var shardTrace [3][]string
	rec := func(d *Simulator, tag string) {
		shardTrace[d.shard] = append(shardTrace[d.shard],
			fmt.Sprintf("%v shard%d %s", d.Now(), d.shard, tag))
	}

	// Each domain runs local chatter and bounces messages to the others.
	var bounce func(from, to *Simulator, hops int)
	bounce = func(from, to *Simulator, hops int) {
		if hops == 0 {
			return
		}
		postTo(from, to, 10*time.Millisecond, func() {
			rec(to, fmt.Sprintf("hop%d", hops))
			// Domain-local follow-up work plus RNG consumption.
			to.Schedule(time.Duration(to.Rand().Intn(1000))*time.Microsecond, func() {
				rec(to, "local")
			})
			bounce(to, from, hops-1)
		})
	}
	root.Schedule(0, func() {
		rec(root, "start")
		bounce(root, a, 6)
		bounce(root, b, 6)
	})
	a.Schedule(5*time.Millisecond, func() { rec(a, "a-timer") })
	b.Every(17*time.Millisecond, func() { rec(b, "b-tick") })

	c.RunUntil(200 * time.Millisecond)

	if got := c.Now(); got != 200*time.Millisecond {
		t.Fatalf("root clock = %v, want 200ms", got)
	}
	for _, d := range []*Simulator{root, a, b} {
		if d.Now() != 200*time.Millisecond {
			t.Fatalf("shard %d clock = %v, want 200ms", d.shard, d.Now())
		}
	}
	var trace []string
	for _, st := range shardTrace {
		trace = append(trace, st...)
	}
	return trace
}

// TestCoordinatorDeterministicAcrossWorkers is the core determinism
// property: the same seed must produce an identical execution trace no
// matter how many workers run the domains.
func TestCoordinatorDeterministicAcrossWorkers(t *testing.T) {
	base := pingPongTrace(t, 1)
	if len(base) < 20 {
		t.Fatalf("trace too short to be meaningful: %d entries", len(base))
	}
	for _, workers := range []int{2, 4, 8} {
		got := pingPongTrace(t, workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: trace length %d != %d", workers, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: trace diverges at %d: %q != %q", workers, i, got[i], base[i])
			}
		}
	}
}

// TestPostToClampsToLookahead checks the conservative-synchronization
// invariant: cross-domain effects cannot arrive sooner than the lookahead.
func TestPostToClampsToLookahead(t *testing.T) {
	root := New(1)
	c := NewCoordinator(root, 20*time.Millisecond, 2)
	d := c.NewDomain()

	var arrived time.Duration
	root.Schedule(0, func() {
		postTo(root, d, 0, func() { arrived = d.Now() })
	})
	c.RunUntil(100 * time.Millisecond)
	if arrived != 20*time.Millisecond {
		t.Fatalf("zero-delay cross message arrived at %v, want 20ms (lookahead)", arrived)
	}

	// A same-simulator post is plain Schedule: no clamp.
	var local time.Duration
	root.Schedule(0, func() {
		postTo(root, root, time.Millisecond, func() { local = root.Now() })
	})
	c.RunFor(100 * time.Millisecond)
	if local != 101*time.Millisecond {
		t.Fatalf("local post arrived at %v, want 101ms", local)
	}
}

// TestPostToExactLookaheadBoundary pins the clamp edge: a delay of
// exactly the lookahead is already legal wire latency and must pass
// through unmodified, and anything longer must not be rounded down.
func TestPostToExactLookaheadBoundary(t *testing.T) {
	root := New(5)
	c := NewCoordinator(root, 20*time.Millisecond, 2)
	d := c.NewDomain()

	var at, over time.Duration
	root.Schedule(10*time.Millisecond, func() {
		postTo(root, d, 20*time.Millisecond, func() { at = d.Now() })
		postTo(root, d, 20*time.Millisecond+time.Microsecond, func() { over = d.Now() })
	})
	c.RunUntil(100 * time.Millisecond)
	if at != 30*time.Millisecond {
		t.Fatalf("exact-lookahead post arrived at %v, want 30ms", at)
	}
	if want := 30*time.Millisecond + time.Microsecond; over != want {
		t.Fatalf("lookahead+1us post arrived at %v, want %v", over, want)
	}
}

// TestPostTimerToFilesByArrival: a posted timer is armed on the receiving
// domain at delivery, and delivery files it like any local arming — by how
// far ahead of the receiver's clock it is due. One timer lands in each of
// the receiver's heaps; both belong to it from then on and fire on time.
func TestPostTimerToFilesByArrival(t *testing.T) {
	root := New(3)
	c := NewCoordinator(root, 10*time.Millisecond, 2)
	d := c.NewDomain()

	var soon, late Timer
	var soonAt, lateAt time.Duration
	soon.Init(root, func() { soonAt = d.Now() })
	late.Init(root, func() { lateAt = d.Now() })
	probed := false
	root.Schedule(0, func() {
		root.PostTimerTo(d, 15*time.Millisecond, &soon)
		root.PostTimerTo(d, 2*time.Second, &late)
		postTo(root, d, 0, func() {
			probed = true
			if got := queued(d, &soon.ev); got != "near" || soon.ev.sim != d {
				t.Errorf("timer due in 5 ms: queued %q on shard %d, want near on %d", got, soon.ev.sim.shard, d.shard)
			}
			if got := queued(d, &late.ev); got != "far" || late.ev.sim != d {
				t.Errorf("timer due in 2 s: queued %q on shard %d, want far on %d", got, late.ev.sim.shard, d.shard)
			}
			if d.Pending() != 2 {
				t.Errorf("receiver has %d events pending, want the two timers", d.Pending())
			}
		})
	})
	c.RunUntil(3 * time.Second)
	if !probed || soonAt != 15*time.Millisecond || lateAt != 2*time.Second {
		t.Fatalf("probed %v, timers fired on the receiver at %v and %v, want 15ms and 2s", probed, soonAt, lateAt)
	}
	if soon.Pending() || late.Pending() || d.Pending() != 0 {
		t.Fatalf("after the run: pending %v %v, receiver queue %d", soon.Pending(), late.Pending(), d.Pending())
	}
	// The receiver owns them now: it re-arms one across the horizon.
	late.Reset(time.Millisecond)
	if got := queued(d, &late.ev); got != "near" {
		t.Fatalf("re-armed on the receiver: queued %q, want near", got)
	}
	late.Stop()
}

// TestWindowCapsSelfInducedFuture guards the one hazard of demand-driven
// windows: a busy domain whose window was widened by an idle peer sends a
// message, the recipient reacts immediately, and the reply must still
// arrive at its proper virtual time — the sender cannot have run past it.
func TestWindowCapsSelfInducedFuture(t *testing.T) {
	root := New(11)
	c := NewCoordinator(root, 10*time.Millisecond, 1)
	d := c.NewDomain()

	var replyAt time.Duration
	var beforeReply, afterReply int
	root.Schedule(0, func() {
		postTo(root, d, 0, func() { // arrives at 10ms
			postTo(d, root, 0, func() { replyAt = root.Now() }) // due back at 20ms
		})
	})
	// Dense root-local chatter: without the winEnd cap the idle-granted
	// window would let the root burn through all of it before the reply
	// can be delivered, executing the 20ms reply late.
	for i := 1; i <= 50; i++ {
		at := time.Duration(i) * time.Millisecond
		root.Schedule(at, func() {
			if replyAt == 0 {
				beforeReply++
			} else {
				afterReply++
			}
		})
	}
	c.RunUntil(100 * time.Millisecond)
	if replyAt != 20*time.Millisecond {
		t.Fatalf("induced reply executed at %v, want exactly 20ms", replyAt)
	}
	if beforeReply != 20 || afterReply != 30 {
		t.Fatalf("local events split %d before / %d after the reply, want 20/30",
			beforeReply, afterReply)
	}
}

// TestSparseWorkloadElidesBarriers: an idle domain grants an unbounded
// window (the elided null message), so a single busy domain runs its whole
// span in one synchronization round instead of one round per lookahead.
func TestSparseWorkloadElidesBarriers(t *testing.T) {
	root := New(17)
	c := NewCoordinator(root, 10*time.Millisecond, 2)
	c.NewDomain() // idle peer

	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 100 {
			root.Schedule(time.Millisecond, tick)
		}
	}
	root.Schedule(0, tick)
	c.RunUntil(time.Second)
	if n != 100 {
		t.Fatalf("ran %d ticks, want 100", n)
	}
	if rounds, _ := c.Stats(); rounds != 1 {
		t.Fatalf("rounds = %d, want 1 (idle domain must elide its barriers)", rounds)
	}
}

// TestCrossPostStraddlesDeadline: a cross-domain message posted before a
// RunUntil deadline survives the quiesce undelivered and arrives at its
// original virtual time in the next run — the pending queue is part of the
// paused world state.
func TestCrossPostStraddlesDeadline(t *testing.T) {
	root := New(13)
	c := NewCoordinator(root, 10*time.Millisecond, 2)
	d := c.NewDomain()

	var arrived time.Duration
	root.Schedule(0, func() {
		postTo(root, d, 30*time.Millisecond, func() { arrived = d.Now() })
	})
	c.RunUntil(5 * time.Millisecond)
	if arrived != 0 {
		t.Fatalf("message delivered before its time, at %v", arrived)
	}

	c.RunUntil(100 * time.Millisecond)
	if arrived != 30*time.Millisecond {
		t.Fatalf("delivery after the quiesce at %v, want 30ms", arrived)
	}
	if got := d.Now(); got != 100*time.Millisecond {
		t.Fatalf("domain clock = %v, want 100ms", got)
	}
}

// captureSink records every event the journal writes through.
type captureSink struct{ events []obs.Event }

func (c *captureSink) WriteEvent(e obs.Event) error {
	c.events = append(c.events, e)
	return nil
}

// TestInjectOnDomainRunsInDomain: Inject hands a control action from an
// alien goroutine into a coordinated domain's event loop; it executes at the
// domain's clock, journals on the domain's stream, and anything it sends to
// another domain arrives one lookahead later like any other event's hop.
func TestInjectOnDomainRunsInDomain(t *testing.T) {
	root := New(19)
	c := NewCoordinator(root, 10*time.Millisecond, 2)
	d := c.NewDomain()
	d.Every(time.Millisecond, func() {}) // keep the domain busy
	sink := &captureSink{}
	root.Obs().Journal.SetSink(sink)
	sc := d.Obs().Scope("ctl", 8)

	c.RunUntil(50 * time.Millisecond)
	var ranAt, echoAt time.Duration
	done := make(chan struct{})
	go func() { // the outside goroutine
		defer close(done)
		d.Inject(func() {
			ranAt = d.Now()
			sc.Emit(obs.Event{Type: "test.injected"})
			d.Hop(root, func() { echoAt = root.Now() })
		})
	}()
	<-done
	if ranAt != 0 || d.Pending() != 1 {
		t.Fatalf("injection ran before the quiesce point (ranAt %v, pending %d)", ranAt, d.Pending())
	}
	c.RunUntil(100 * time.Millisecond)
	if ranAt != 50*time.Millisecond {
		t.Fatalf("injected action ran at %v, want 50ms (the quiesce clock)", ranAt)
	}
	if echoAt != 60*time.Millisecond {
		t.Fatalf("cross-domain echo at %v, want 60ms (one lookahead later)", echoAt)
	}
	if len(sink.events) != 1 || sink.events[0].T != 50*time.Millisecond || sink.events[0].Scope != "ctl" {
		t.Fatalf("journal %+v, want one ctl event stamped 50ms by the domain's stream", sink.events)
	}
	if d.Obs().Scope("ctl", 8).Len() != 1 || root.Obs().Scope("ctl", 8).Len() != 0 {
		t.Fatal("injected event must land in the domain's ring, not the root's")
	}
}

// TestHop: a hop is a call inside one domain and a lookahead-floor post
// between two, on a standalone simulator and under a coordinator alike.
func TestHop(t *testing.T) {
	alone := New(1)
	root := New(2)
	c := NewCoordinator(root, 10*time.Millisecond, 2)
	a, b := c.NewDomain(), c.NewDomain()
	run := func(until time.Duration) {
		alone.RunUntil(until)
		c.RunUntil(until)
	}
	for _, tc := range []struct {
		name     string
		from, to *Simulator
		wantAt   time.Duration // arrival, relative to the hop
	}{
		{"standalone to itself", alone, alone, 0},
		{"root to itself", root, root, 0},
		{"domain to itself", a, a, 0},
		{"root to domain", root, a, 10 * time.Millisecond},
		{"domain to root", a, root, 10 * time.Millisecond},
		{"domain to domain", a, b, 10 * time.Millisecond},
	} {
		start := tc.from.Now() + 5*time.Millisecond
		ranAt, ranBeforeReturn := time.Duration(-1), false
		tc.from.ScheduleAt(start, func() {
			tc.from.Hop(tc.to, func() { ranAt = tc.to.Now() })
			ranBeforeReturn = ranAt >= 0
		})
		run(start + 50*time.Millisecond)
		if ranAt != start+tc.wantAt {
			t.Errorf("%s: ran at %v, want %v", tc.name, ranAt, start+tc.wantAt)
		}
		if ranBeforeReturn != (tc.wantAt == 0) {
			t.Errorf("%s: ran before Hop returned = %v", tc.name, ranBeforeReturn)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Hop to an unrelated simulator must panic")
		}
	}()
	root.Hop(alone, func() {})
}

// TestCrossFloorAndSameWorld covers the topology-validation helpers used
// by netsim.Connect.
func TestCrossFloorAndSameWorld(t *testing.T) {
	root := New(3)
	c := NewCoordinator(root, 15*time.Millisecond, 2)
	d := c.NewDomain()
	other := New(3)

	if !root.SameWorld(d) || !d.SameWorld(root) {
		t.Fatal("domains of one coordinator must share a world")
	}
	if root.SameWorld(other) {
		t.Fatal("unrelated simulators must not share a world")
	}
	if got := root.CrossFloor(d); got != 15*time.Millisecond {
		t.Fatalf("CrossFloor = %v, want 15ms", got)
	}
	if got := root.CrossFloor(root); got != 0 {
		t.Fatalf("CrossFloor(self) = %v, want 0", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a post to an unrelated simulator must panic")
		}
	}()
	postTo(root, other, 0, func() {})
}

// TestDomainRNGStreamsIndependent: each domain's RNG is seeded from
// (root seed, shard id) and never consumed by another domain.
func TestDomainRNGStreamsIndependent(t *testing.T) {
	draw := func(workers int) [3][]int {
		root := New(99)
		c := NewCoordinator(root, 10*time.Millisecond, workers)
		a, b := c.NewDomain(), c.NewDomain()
		var out [3][]int
		for i, d := range []*Simulator{root, a, b} {
			i, d := i, d
			d.Every(7*time.Millisecond, func() {
				out[i] = append(out[i], d.Rand().Intn(1<<20))
			})
		}
		c.RunUntil(100 * time.Millisecond)
		return out
	}
	one, four := draw(1), draw(4)
	for i := range one {
		if len(one[i]) == 0 {
			t.Fatalf("shard %d drew nothing", i)
		}
		if fmt.Sprint(one[i]) != fmt.Sprint(four[i]) {
			t.Fatalf("shard %d RNG stream differs across worker counts:\n%v\n%v", i, one[i], four[i])
		}
	}
	if fmt.Sprint(one[1]) == fmt.Sprint(one[2]) {
		t.Fatal("distinct shards drew identical RNG streams")
	}
}

// stormRun replays one seeded cross-post storm — chains of events that fan
// out at random to their own and other domains by Hop, by a post with random
// delays >= 0 and by local Schedule, kicked off by seeded events and by a few
// Injects between RunUntil slices — and returns each domain's event order
// and the merged journal.
func stormRun(seed int64, workers int) (perDomain [][]string, journal []string) {
	const domains, slices, slice = 5, 6, 40 * time.Millisecond
	root := New(seed)
	c := NewCoordinator(root, 10*time.Millisecond, workers)
	doms := []*Simulator{root}
	for len(doms) < domains {
		doms = append(doms, c.NewDomain())
	}
	sink := &captureSink{}
	root.Obs().Journal.SetSink(sink)
	perDomain = make([][]string, domains)
	scopes := make([]*obs.Scope, domains)
	for i, d := range doms {
		scopes[i] = d.Obs().Scope("storm", 16)
	}

	// act runs on d's goroutine and touches only d's trace, scope and RNG.
	var act func(d *Simulator, tag string, depth int)
	act = func(d *Simulator, tag string, depth int) {
		i := d.shard
		perDomain[i] = append(perDomain[i], fmt.Sprintf("%v %s/%d", d.Now(), tag, depth))
		scopes[i].Emit(obs.Event{Type: "storm.act", N: uint64(depth), Detail: tag})
		if depth == 0 {
			return
		}
		rng := d.Rand()
		for fan := rng.Intn(4); fan > 0; fan-- {
			to := doms[rng.Intn(domains)]
			switch next := func() { act(to, tag, depth-1) }; rng.Intn(3) {
			case 0:
				d.Hop(to, next)
			case 1:
				postTo(d, to, time.Duration(rng.Intn(30))*time.Millisecond, next)
			default:
				d.Schedule(time.Duration(rng.Intn(5000))*time.Microsecond, func() { d.Hop(to, next) })
			}
		}
	}

	plan := rand.New(rand.NewSource(seed)) // the driver's choices, not a domain's
	for i := 0; i < 8; i++ {
		d, tag := doms[plan.Intn(domains)], fmt.Sprintf("seed%d", i)
		d.Schedule(time.Duration(plan.Intn(100))*time.Millisecond, func() { act(d, tag, 6) })
	}
	for s := 1; s <= slices; s++ {
		c.RunUntil(time.Duration(s) * slice)
		for n := plan.Intn(3); n > 0; n-- {
			d, tag := doms[plan.Intn(domains)], fmt.Sprintf("inject%d.%d", s, n)
			d.Inject(func() { act(d, tag, 4) })
		}
	}
	c.RunUntil(time.Second)
	for _, e := range sink.events {
		journal = append(journal, fmt.Sprintf("%v %s %s/%d", e.T, e.Scope, e.Detail, e.N))
	}
	return perDomain, journal
}

// TestCoordinatorStormDeterministicAcrossWorkers is the randomized proof of
// the coordinator's contract: for several seeds, a cross-post storm replayed
// at 1..8 workers executes every domain's events in the same order and
// merges to the same journal.
func TestCoordinatorStormDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 2011} {
		wantDomains, wantJournal := stormRun(seed, 1)
		if len(wantJournal) < 100 {
			t.Fatalf("seed %d: storm too small to prove anything (%d events)", seed, len(wantJournal))
		}
		crossed := 0
		for _, tr := range wantDomains {
			if len(tr) > 0 {
				crossed++
			}
		}
		if crossed < 4 {
			t.Fatalf("seed %d: storm reached only %d domains", seed, crossed)
		}
		for workers := 2; workers <= 8; workers++ {
			gotDomains, gotJournal := stormRun(seed, workers)
			for i := range wantDomains {
				if !reflect.DeepEqual(gotDomains[i], wantDomains[i]) {
					t.Fatalf("seed %d workers %d: domain %d event order differs:\n got %v\nwant %v",
						seed, workers, i, gotDomains[i], wantDomains[i])
				}
			}
			if !reflect.DeepEqual(gotJournal, wantJournal) {
				t.Fatalf("seed %d workers %d: merged journal differs", seed, workers)
			}
		}
	}
}
