package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gq/internal/obs"
)

// This file implements sharded simulation: a Coordinator owns a set of
// Simulators ("domains") and runs them on worker goroutines under
// conservative lookahead synchronization (classic CMB-style, with
// demand-driven per-domain windows — null-message elision):
//
//   - Every cross-domain effect is posted (Hop, PostTimerTo) and
//     takes at least the coordinator's lookahead of virtual time to
//     arrive. That is the physical trunk/uplink latency between a subfarm
//     and the gateway, so the clamp models wire delay, not an artificial
//     fudge.
//   - Each round the coordinator collects every domain's next actionable
//     time next_o = min(local event queue, earliest undelivered cross
//     message bound for o). Domain d may then run freely up to
//     end_d = min over o != d of (next_o + lookahead): nothing any other
//     domain o does before next_o exists, and nothing it does at or after
//     next_o can reach d before next_o + lookahead. An idle domain has
//     next_o = +inf and so grants an unbounded window — the implicit
//     null message of the CMB scheme, elided rather than sent — which
//     lets a sparse workload run one busy domain straight to the deadline
//     in a single round instead of paying a barrier every lookahead.
//   - The one hazard of a wide window is a domain inducing its own
//     future: if d sends a message while running, a recipient may react
//     and reply. The reply cannot arrive before the original message's
//     arrival time + lookahead, so a post tightens the sender's own
//     window end to that bound (Simulator.winEnd) the moment a message
//     is posted. Deeper reaction chains only arrive later.
//   - Cross messages are delivered in (arrival time, source shard, source
//     sequence) order, a unique total order independent of how the
//     domains were interleaved on OS threads. Together with per-domain
//     RNG streams and per-domain journal streams this makes a sharded run
//     byte-identical for a given seed regardless of GOMAXPROCS or worker
//     count.
//
// Idle stretches cost nothing: the round start jumps straight to the next
// event, so a quiet farm synchronizes as rarely as a busy one synchronizes
// often.

// crossMsg is one scheduled cross-domain callback: a one-shot fn, or a
// caller-owned timer that the receiving domain arms (see PostTimerTo).
type crossMsg struct {
	at       time.Duration
	src, dst int
	seq      uint64
	fn       func()
	timer    *Timer
}

// DefaultLookahead is the coordinator's default synchronization window —
// the modeled trunk latency between a subfarm and the gateway core. Large
// enough that barrier overhead is negligible against per-window event
// work, small enough that control-plane round trips (ARP retries, TCP
// handshakes with external hosts) stay well inside protocol timeouts.
const DefaultLookahead = 20 * time.Millisecond

// Coordinator runs a root Simulator plus per-shard domains in lockstep
// windows. Construct with NewCoordinator around an existing root
// Simulator, carve out domains with NewDomain while building the
// topology, then drive virtual time with RunUntil/RunFor instead of the
// root's own Run methods.
type Coordinator struct {
	root      *Simulator
	domains   []*Simulator
	lookahead time.Duration
	workers   int

	// pending holds undelivered cross-domain messages sorted by
	// (at, src, seq).
	pending []crossMsg

	// Per-round state shared with worker goroutines. Written by the
	// coordinator before workers are released each round (the channel
	// send orders the memory), read-only during the round.
	curActive []*Simulator
	curLimit  time.Duration
	nextIdx   atomic.Int64

	startCh chan struct{}
	doneCh  chan struct{}
	wg      sync.WaitGroup

	// Round-planning scratch, reused across rounds: per-domain next
	// actionable times and per-domain window ends (indexed by shard id).
	active []*Simulator
	nexts  []time.Duration
	ends   []time.Duration

	// rounds counts synchronization windows executed; windows counts
	// domain-windows run across them (windows/rounds = average parallelism
	// available, independent of how many CPUs actually ran it).
	rounds, windows uint64

	// Live shard-utilization metrics in the shared registry: how many
	// domains ran in the most recent round, plus cumulative round and
	// domain-window counts so observers can derive domains/round.
	busyGauge  *obs.Gauge
	roundsCtr  *obs.Counter
	windowsCtr *obs.Counter
}

// maxTime is the "no event" sentinel for round planning.
const maxTime = time.Duration(1<<63 - 1)

// NewCoordinator makes root shard 0 of a coordinated simulation.
// lookahead <= 0 selects DefaultLookahead; workers <= 0 selects
// GOMAXPROCS. The root's journal is switched into buffered parallel mode:
// events from all domains are merged deterministically whenever the
// coordinator quiesces (end of each RunUntil).
func NewCoordinator(root *Simulator, lookahead time.Duration, workers int) *Coordinator {
	if root.coord != nil {
		panic("sim: simulator already coordinated")
	}
	if lookahead <= 0 {
		lookahead = DefaultLookahead
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &Coordinator{root: root, lookahead: lookahead, workers: workers}
	root.coord = c
	root.shard = 0
	c.domains = []*Simulator{root}
	root.obs.Journal.SetParallel()
	c.busyGauge = root.obs.Reg.Gauge("sim.domains_busy")
	c.roundsCtr = root.obs.Reg.Counter("sim.rounds")
	c.windowsCtr = root.obs.Reg.Counter("sim.domain_windows")
	return c
}

// Now returns the root domain's clock (all domains agree at every quiesce
// point).
func (c *Coordinator) Now() time.Duration { return c.root.now }

// NewDomain creates a new simulation domain. Its RNG stream is derived
// deterministically from (root seed, shard id) — golden-ratio stride so
// neighboring shards decorrelate — and its telemetry is a shard view of
// the root's: shared registry and journal, domain-local clock and event
// stream. Call during topology construction, never mid-run.
func (c *Coordinator) NewDomain() *Simulator {
	shard := len(c.domains)
	const goldenGamma = -0x61C8864680B583EB // 0x9E3779B97F4A7C15 as int64
	seed := c.root.seed + int64(shard)*goldenGamma
	d := &Simulator{
		rng:   rand.New(rand.NewSource(seed)),
		seed:  seed,
		shard: shard,
		coord: c,
	}
	d.setNow(c.root.now)
	d.obs = c.root.obs.ShardView(func() time.Duration {
		return time.Duration(d.nowShared.Load())
	})
	c.domains = append(c.domains, d)
	return d
}

// Coordinator returns the coordinator owning this simulator, or nil.
func (s *Simulator) Coordinator() *Coordinator { return s.coord }

// SameWorld reports whether s and o can exchange events: either the same
// simulator, or two domains of the same coordinator.
func (s *Simulator) SameWorld(o *Simulator) bool {
	return s == o || (s.coord != nil && s.coord == o.coord)
}

// CrossFloor returns the minimum virtual latency for effects travelling
// from s to o: zero within a domain, the coordinator's lookahead across
// domains.
func (s *Simulator) CrossFloor(o *Simulator) time.Duration {
	if s == o || s.coord == nil || s.coord != o.coord {
		return 0
	}
	return s.coord.lookahead
}

// Hop runs fn on dst's goroutine, called from s's: at once when dst is s,
// otherwise as an event on dst one lookahead from now, delivered through
// the coordinator's deterministic merge. It is the one way for code running
// in a domain to touch state another domain owns. Whatever fn reports back
// through captured variables is set on return only when the hop was a call;
// a posted fn has merely been accepted. Panics if the simulators do not
// share a coordinator.
func (s *Simulator) Hop(dst *Simulator, fn func()) {
	if dst == s {
		fn()
		return
	}
	s.post(dst, 0, crossMsg{fn: fn})
}

// PostTimerTo arms an idle caller-owned timer on dst: it fires there after
// delay d, running the callback it was initialised with. Within one
// simulator it is exactly t.Reset. Across domains the delay is clamped up
// to the coordinator's lookahead (the modeled trunk latency), and the
// sender gives the timer (and whatever owns it) up: the coordinator binds
// it to dst and arms it there, and from then on it belongs to dst's
// goroutine.
func (s *Simulator) PostTimerTo(dst *Simulator, d time.Duration, t *Timer) {
	if dst == s {
		t.Reset(d)
		return
	}
	if t.ev.pos != 0 {
		panic("sim: PostTimerTo of a pending timer")
	}
	s.post(dst, d, crossMsg{timer: t})
}

// post stamps a cross-domain message and queues it in this domain's outbox.
func (s *Simulator) post(dst *Simulator, d time.Duration, m crossMsg) {
	c := s.coord
	if c == nil || dst.coord != c {
		panic("sim: cross-domain post between unrelated simulators")
	}
	if d < c.lookahead {
		d = c.lookahead
	}
	m.at, m.src, m.dst, m.seq = s.now+d, s.shard, dst.shard, s.outSeq
	s.outbox = append(s.outbox, m)
	s.outSeq++
	// A recipient may react to this message; its earliest possible
	// response lands at arrival + lookahead (deeper chains later still).
	// Tighten this window so we stop before any induced effect could be
	// due back here.
	if s.winEnd != 0 {
		if bound := m.at + c.lookahead; bound < s.winEnd {
			s.winEnd = bound
		}
	}
}

// runWindow drains events with firing times inside [now, winEnd) and not
// beyond limit (the run deadline, inclusive). winEnd is set by the
// coordinator's round plan and may shrink mid-window when a post sends a
// cross message. It is the per-domain body of one coordinator round and
// never blocks. gid is the id of the goroutine running it, which the caller
// looked up once for all its windows: it marks the loop for OnEventLoop.
func (s *Simulator) runWindow(limit time.Duration, gid int64) {
	s.loopG.Store(gid)
	defer s.endLoop()
	for {
		e := s.next()
		if e == nil || e.key.at >= s.winEnd || e.key.at > limit {
			break
		}
		s.step(e)
	}
	s.winEnd = 0
}

// RunFor advances the coordinated simulation by d of virtual time.
func (c *Coordinator) RunFor(d time.Duration) { c.RunUntil(c.root.now + d) }

// RunUntil executes events across all domains with firing times <=
// deadline, advancing every domain's clock to deadline afterwards
// (mirroring Simulator.RunUntil). Each round's journal events are merged
// and flushed in deterministic order once no domain can emit an earlier
// one, so the buffer holds about one lookahead's worth; on return all
// domains are quiesced and the buffer is empty.
func (c *Coordinator) RunUntil(deadline time.Duration) {
	helpers := c.workers - 1
	if n := len(c.domains) - 1; helpers > n {
		helpers = n
	}
	if helpers > 0 {
		c.startCh = make(chan struct{})
		c.doneCh = make(chan struct{})
		for i := 0; i < helpers; i++ {
			c.wg.Add(1)
			go c.helper()
		}
	}

	for _, d := range c.domains {
		d.admitInjected()
	}
	gid := goid()
	j := c.root.obs.Journal
	for {
		t, ok := c.nextTime()
		if ok {
			// Nothing can happen before t any more: write out what the
			// domains journalled before it.
			j.FlushBefore(t)
		}
		if !ok || t > deadline {
			break
		}
		c.planRound()
		c.deliver()
		c.runRound(deadline, helpers, gid)
		c.collect()
	}

	if helpers > 0 {
		close(c.startCh)
		c.wg.Wait()
		c.startCh, c.doneCh = nil, nil
	}

	for _, d := range c.domains {
		if d.now < deadline {
			d.setNow(deadline)
		}
	}
	j.FlushBefore(maxTime)
}

// nextTime finds the earliest actionable virtual time across all domains
// and undelivered cross messages.
func (c *Coordinator) nextTime() (time.Duration, bool) {
	var t time.Duration
	found := false
	for _, d := range c.domains {
		if next, ok := d.peek(); ok && (!found || next < t) {
			t, found = next, true
		}
	}
	if len(c.pending) > 0 && (!found || c.pending[0].at < t) {
		t, found = c.pending[0].at, true
	}
	return t, found
}

// planRound computes each domain's next actionable time (local queue or
// earliest pending cross message) and from those the per-domain window
// ends: end_d = min over o != d of (next_o + lookahead). Idle domains
// contribute nothing — their implicit null message is "not before +inf" —
// so when only one domain has work its window is unbounded.
func (c *Coordinator) planRound() {
	nexts := c.nexts[:0]
	for _, d := range c.domains {
		n := maxTime
		if next, ok := d.peek(); ok {
			n = next
		}
		nexts = append(nexts, n)
	}
	for i := range c.pending {
		m := &c.pending[i]
		if m.at < nexts[m.dst] {
			nexts[m.dst] = m.at
		}
	}
	c.nexts = nexts

	// The two smallest next times determine every window end: for the
	// globally earliest domain the binding constraint is the runner-up,
	// for everyone else it is the global minimum.
	min1, min2, arg1 := maxTime, maxTime, -1
	for i, n := range nexts {
		if n < min1 {
			min2 = min1
			min1, arg1 = n, i
		} else if n < min2 {
			min2 = n
		}
	}
	ends := c.ends[:0]
	for i := range nexts {
		other := min1
		if i == arg1 {
			other = min2
		}
		end := maxTime
		if other != maxTime {
			end = other + c.lookahead
		}
		ends = append(ends, end)
	}
	c.ends = ends
}

// deliver moves pending cross messages due before their target domain's
// window end onto that domain's queue, in (at, src, seq) order.
func (c *Coordinator) deliver() {
	kept := c.pending[:0]
	for i := range c.pending {
		m := &c.pending[i]
		switch dom := c.domains[m.dst]; {
		case m.at >= c.ends[m.dst]:
			kept = append(kept, *m)
		case m.timer != nil:
			m.timer.ev.sim = dom
			dom.enqueue(&m.timer.ev, m.at)
		default:
			dom.ScheduleAt(m.at, m.fn)
		}
	}
	c.pending = kept
}

// collect gathers every domain's outbox into the sorted pending list.
func (c *Coordinator) collect() {
	added := false
	for _, d := range c.domains {
		if len(d.outbox) > 0 {
			c.pending = append(c.pending, d.outbox...)
			d.outbox = d.outbox[:0]
			added = true
		}
	}
	if !added {
		return
	}
	sort.Slice(c.pending, func(i, j int) bool {
		a, b := &c.pending[i], &c.pending[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
}

// runRound executes one round across the active domains, using helper
// goroutines when more than one domain has work. Each active domain runs
// inside its own planned window (Simulator.winEnd). gid is the calling
// goroutine's id.
func (c *Coordinator) runRound(limit time.Duration, helpers int, gid int64) {
	active := c.active[:0]
	for i, d := range c.domains {
		if next, ok := d.peek(); ok && next < c.ends[i] && next <= limit {
			d.winEnd = c.ends[i]
			active = append(active, d)
		}
	}
	c.active = active
	if len(active) == 0 {
		return
	}
	c.rounds++
	c.windows += uint64(len(active))
	c.busyGauge.Set(int64(len(active)))
	c.roundsCtr.Inc()
	c.windowsCtr.Add(uint64(len(active)))
	if helpers == 0 || len(active) == 1 {
		for _, d := range active {
			d.runWindow(limit, gid)
		}
		return
	}
	c.curActive, c.curLimit = active, limit
	c.nextIdx.Store(0)
	release := helpers
	if n := len(active) - 1; release > n {
		release = n
	}
	for i := 0; i < release; i++ {
		c.startCh <- struct{}{}
	}
	c.drain(gid)
	for i := 0; i < release; i++ {
		<-c.doneCh
	}
}

// helper is a persistent worker: woken once per parallel round, it steals
// domains from the shared active list until none remain.
func (c *Coordinator) helper() {
	defer c.wg.Done()
	gid := goid()
	for range c.startCh {
		c.drain(gid)
		c.doneCh <- struct{}{}
	}
}

// drain claims active domains one at a time and runs their windows on the
// calling goroutine, whose id is gid.
func (c *Coordinator) drain(gid int64) {
	for {
		i := int(c.nextIdx.Add(1)) - 1
		if i >= len(c.curActive) {
			return
		}
		c.curActive[i].runWindow(c.curLimit, gid)
	}
}

// Stats reports synchronization rounds executed and domain-windows run
// across them. windows/rounds is the run's average available parallelism —
// a property of the workload, not of how many CPUs happened to execute it.
func (c *Coordinator) Stats() (rounds, windows uint64) { return c.rounds, c.windows }

// String identifies the coordinator in panics and logs.
func (c *Coordinator) String() string {
	return fmt.Sprintf("sim.Coordinator{domains: %d, lookahead: %v, workers: %d}",
		len(c.domains), c.lookahead, c.workers)
}
