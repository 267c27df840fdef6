// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue with stable FIFO ordering among
// simultaneous events, cancellable timers, and a seeded random source.
//
// All of GQ's simulated machinery (links, hosts, protocol stacks, malware
// specimens, reimaging controllers) runs on a single Simulator. Virtual
// time only advances when the event queue is drained up to the next event,
// so experiments that span hours of farm operation complete in milliseconds
// and are bit-for-bit reproducible for a given seed.
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gq/internal/obs"
)

// Event is a scheduled callback. Events with equal firing times run in the
// order they were scheduled.
type Event struct {
	key Key
	fn  func()
	sim *Simulator
	pos int32 // 1 + position in its heap; 0 while not queued
	far bool  // while queued: in sim.far rather than sim.near
}

// Cancel prevents a pending event from firing by taking it out of its
// simulator's queue at once. Cancelling an already-fired or
// already-cancelled event is a no-op. Like everything else that touches
// the queue, Cancel must run on the goroutine that owns the event's
// simulator (inside one of its callbacks, or while it is quiescent).
func (e *Event) Cancel() {
	if e == nil || e.pos == 0 {
		return
	}
	e.sim.unqueue(e)
}

// before is the queue order (Key.Before).
func (e *Event) before(o *Event) bool { return e.key.Before(o.key) }

// eventQueue is a binary min-heap of the pending events, ordered by
// before. Every queued event tracks its own position in pos, which is what
// lets Cancel remove it in O(log n) instead of leaving a dead entry behind.
type eventQueue []*Event

func (q *eventQueue) push(e *Event) {
	*q = append(*q, nil)
	q.up(len(*q)-1, e)
}

// remove takes the event at position i out of the queue; the last event
// fills the hole and sifts whichever way restores heap order.
func (q *eventQueue) remove(i int) {
	old := *q
	n := len(old) - 1
	old[i].pos = 0
	last := old[n]
	old[n] = nil
	*q = old[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(old[(i-1)/2]) {
		q.up(i, last)
	} else {
		q.down(i, last)
	}
}

// up places e at or above the hole at position i.
func (q eventQueue) up(i int, e *Event) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].pos = int32(i + 1)
		i = parent
	}
	q[i] = e
	e.pos = int32(i + 1)
}

// down places e at or below the hole at position i.
func (q eventQueue) down(i int, e *Event) {
	for {
		child := 2*i + 1
		if child >= len(q) {
			break
		}
		if right := child + 1; right < len(q) && q[right].before(q[child]) {
			child = right
		}
		if !q[child].before(e) {
			break
		}
		q[i] = q[child]
		q[i].pos = int32(i + 1)
		i = child
	}
	q[i] = e
	e.pos = int32(i + 1)
}

// Simulator is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; all simulated components run inside event callbacks.
//
// A Simulator may also serve as one *domain* of a sharded simulation: a
// Coordinator owns several Simulators (the root plus one per shard) and
// runs them on worker goroutines under conservative lookahead
// synchronization. Within a domain nothing changes — components schedule
// on their own Simulator exactly as in the single-domain case; only Hop
// (and the timed post under it, PostTimerTo) crosses domains,
// and only Inject enters from outside.
type Simulator struct {
	now time.Duration
	seq uint64
	// The pending events, split by how far ahead they were scheduled (see
	// farHorizon). Which heap holds an event never affects when it fires:
	// the next event is whichever top is before the other.
	near, far eventQueue
	rng       *rand.Rand
	seed      int64

	// Sharding state: which domain this is, the coordinator that owns it
	// (nil for a standalone simulator), and the outbox of cross-domain
	// messages generated during the current window.
	shard  int
	coord  *Coordinator
	outbox []crossMsg
	outSeq uint64

	// winEnd is the exclusive end of the window this domain is currently
	// running (zero outside a window). A post tightens it to the first
	// cross-message's arrival time + lookahead so a domain granted a wide
	// window can never outrun a response its own message might induce.
	// Touched only by the goroutine running this domain's window.
	winEnd time.Duration

	// nowShared mirrors now so observers on other goroutines (telemetry
	// snapshots) can read the clock without racing the event loop.
	nowShared atomic.Int64

	// Goroutine bridges (proc.go): the registry of coupled procs, the
	// loop-goroutine mark, and the Inject mailbox for alien goroutines.
	procsMu   sync.RWMutex
	procs     map[int64]*Proc
	loopG     atomic.Int64
	injectMu  sync.Mutex
	injected  []func()
	injectN   atomic.Int32
	injectSig chan struct{}

	obs *obs.Obs

	// locals is the domain-local storage behind Local.
	localsMu sync.Mutex
	locals   map[any]any

	// Fired counts events executed since construction.
	Fired uint64
}

// New returns a Simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	s := &Simulator{
		rng:       rand.New(rand.NewSource(seed)),
		seed:      seed,
		injectSig: make(chan struct{}, 1),
	}
	s.obs = obs.New(func() time.Duration {
		return time.Duration(s.nowShared.Load())
	})
	s.obs.Journal.Epoch = Epoch
	return s
}

// Obs returns the simulation's telemetry instance (metrics registry, event
// journal, flight recorder). Every component reaches telemetry through its
// Simulator reference, so all layers share one registry per experiment.
func (s *Simulator) Obs() *obs.Obs { return s.obs }

// Local returns the value a higher layer keeps once per simulation domain
// under key (a type private to that layer), creating it with mk on first
// use — netsim's free list of in-flight frame records lives here. The
// lookup is safe from any goroutine; the value itself follows the domain's
// rule and is touched only from the domain's own goroutine.
func (s *Simulator) Local(key any, mk func() any) any {
	s.localsMu.Lock()
	defer s.localsMu.Unlock()
	v, ok := s.locals[key]
	if !ok {
		if s.locals == nil {
			s.locals = make(map[any]any)
		}
		v = mk()
		s.locals[key] = v
	}
	return v
}

// setNow advances the clock, keeping the observer mirror in sync. The
// mirror is written only when the clock moves: many events fire at the
// instant already on it, and the atomic store is not free.
func (s *Simulator) setNow(t time.Duration) {
	if t == s.now {
		return
	}
	s.now = t
	s.nowShared.Store(int64(t))
}

// Now returns the current virtual time as an offset from the simulation
// epoch.
func (s *Simulator) Now() time.Duration { return s.now }

// ObservedNow returns the clock through the mirror maintained for
// observers on other goroutines. Unlike Now it is safe to call from any
// goroutine, at the price of lagging by the event currently executing.
func (s *Simulator) ObservedNow() time.Duration { return time.Duration(s.nowShared.Load()) }

// Epoch is the wall-clock instant virtual time zero corresponds to when a
// human-readable timestamp is needed (reports, pcap headers). The date is
// arbitrary but fixed so output is reproducible.
var Epoch = time.Date(2011, time.November, 2, 0, 0, 0, 0, time.UTC)

// WallClock converts the current virtual time to an absolute timestamp.
func (s *Simulator) WallClock() time.Time { return Epoch.Add(s.now) }

// Rand exposes the simulation's seeded random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Schedule runs fn after delay d of virtual time. A negative delay is
// treated as zero. The returned Event may be cancelled. It is the call for
// one-shots: each costs an Event. Anything armed more than once over its
// owner's life (a retransmission timer, a link's in-flight frame) embeds a
// Timer instead.
func (s *Simulator) Schedule(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.ScheduleAt(s.now+d, fn)
}

// ScheduleAt runs fn at absolute virtual time at (clamped to now).
func (s *Simulator) ScheduleAt(at time.Duration, fn func()) *Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	e := &Event{fn: fn, sim: s}
	s.enqueue(e, at)
	return e
}

// enqueue queues the idle event e to fire at absolute time at (clamped to
// now), taking the next scheduling sequence number for it.
func (s *Simulator) enqueue(e *Event, at time.Duration) {
	if at < s.now {
		at = s.now
	}
	s.queue(e, Key{at, s.seq})
	s.seq++
}

// queue files the idle event e under key k.
func (s *Simulator) queue(e *Event, k Key) {
	e.key = k
	if e.far = k.at-s.now >= farHorizon; e.far {
		s.far.push(e)
	} else {
		s.near.push(e)
	}
}

// Key is a place in a simulator's firing order: a virtual time and the
// scheduling sequence number taken for it.
type Key struct {
	at  time.Duration
	seq uint64
}

// Before is the queue order: firing time, then scheduling order. seq is
// unique per simulator, so the order is total and the firing sequence does
// not depend on how the heap happens to arrange equal keys.
func (k Key) Before(o Key) bool { return k.at < o.at || k.at == o.at && k.seq < o.seq }

// At is the virtual time the key fires at.
func (k Key) At() time.Duration { return k.at }

// Stamp takes the key an event scheduled d from now would be given — the
// same clamp, the next sequence number — without queueing anything. A
// holder of many future firings (a link's frames in flight) stamps each
// where it would have scheduled it and keeps only the earliest armed, with
// Timer.ResetAt: the firing order is the one a timer per firing would give.
func (s *Simulator) Stamp(d time.Duration) Key {
	if d < 0 {
		d = 0
	}
	k := Key{s.now + d, s.seq}
	s.seq++
	return k
}

// farHorizon splits the pending events into two heaps. Scheduled delays are
// bimodal: link hops, pacing and service times are under 100 ms, protocol
// timers (retransmission, TIME_WAIT, flow linger, tombstones, sweeps) are a
// second or more and are mostly stopped or outlived by their owner — nothing
// on any benchmark workload lands in between (DESIGN.md §3b). An event due
// at least this far ahead goes to the far heap, so the thousands of long
// timers a busy flow table keeps pending do not deepen the heap every frame
// event sifts through. It is a constant, not a knob: any value inside the
// empty band gives the same split, and a wrong one costs speed, never order.
const farHorizon = 500 * time.Millisecond

// unqueue takes the pending event e out of the heap that holds it.
func (s *Simulator) unqueue(e *Event) {
	if e.far {
		s.far.remove(int(e.pos) - 1)
	} else {
		s.near.remove(int(e.pos) - 1)
	}
}

// next returns the earliest pending event, still queued: the top of the
// near heap or of the far heap, whichever is before the other. nil when
// nothing is pending.
func (s *Simulator) next() *Event {
	var e *Event
	if len(s.near) > 0 {
		e = s.near[0]
	}
	if len(s.far) > 0 && (e == nil || s.far[0].before(e)) {
		e = s.far[0]
	}
	return e
}

// Timer is a re-armable event stored by value inside its owner, so arming
// it allocates nothing: Init once, then Reset and Stop as often as needed.
// Reset takes a scheduling sequence number exactly where Cancel followed by
// Schedule would, so a Timer fires in the same order among simultaneous
// events as the Event pair it replaces. The zero Timer is idle; Stop on it
// is a no-op. A Timer must not be copied after Init, and like an Event it
// belongs to its simulator's goroutine.
type Timer struct{ ev Event }

// Init binds the timer to s and to the callback every firing runs.
func (t *Timer) Init(s *Simulator, fn func()) {
	if fn == nil {
		panic("sim: nil timer function")
	}
	if t.ev.pos != 0 {
		panic("sim: Init of a pending timer")
	}
	t.ev.sim, t.ev.fn = s, fn
}

// Reset (re-)arms the timer to fire after delay d (negative is zero),
// replacing a pending firing. It may be called from the timer's own
// callback.
func (t *Timer) Reset(d time.Duration) {
	t.Stop()
	s := t.ev.sim
	s.enqueue(&t.ev, s.now+d) // enqueue clamps a negative delay to now
}

// ResetAt (re-)arms the timer to fire at k, a key its simulator's Stamp
// gave out, replacing a pending firing. It takes no sequence number: the
// timer fires where an event scheduled at the Stamp call would have. k must
// not be in the past.
func (t *Timer) ResetAt(k Key) {
	t.Stop()
	s := t.ev.sim
	if k.at < s.now {
		panic(fmt.Sprintf("sim: ResetAt %v, before now %v", k.at, s.now))
	}
	s.queue(&t.ev, k)
}

// Stop takes a pending firing out of the queue. Stopping an idle timer is
// a no-op.
func (t *Timer) Stop() {
	if t.ev.pos != 0 {
		t.ev.sim.unqueue(&t.ev)
	}
}

// Pending reports whether the timer is armed and has not fired yet.
func (t *Timer) Pending() bool { return t.ev.pos != 0 }

// At is the virtual time a pending timer fires at.
func (t *Timer) At() time.Duration { return t.ev.key.at }

// Pending reports the number of events waiting to fire. Cancelled events
// leave the queue when they are cancelled, so they are never counted.
func (s *Simulator) Pending() int { return len(s.near) + len(s.far) }

// Step executes the next pending event, advancing the clock to its firing
// time. It returns false when the queue is empty.
func (s *Simulator) Step() bool { return s.step(s.next()) }

// step is Step for a caller that has already looked at the head event e
// (s.next(), possibly nil) to decide whether to go on: the run loops choose
// between the two heaps once per event, not once to peek and again to pop.
func (s *Simulator) step(e *Event) bool {
	if s.injectN.Load() != 0 && s.coord == nil {
		// A coordinated domain's mailbox waits for the quiesce point. What
		// ran here may have scheduled ahead of e or cancelled it.
		s.drainInjected()
		e = s.next()
	}
	if e == nil {
		return false
	}
	s.unqueue(e)
	s.setNow(e.key.at)
	s.Fired++
	e.fn()
	return true
}

// Run drains the event queue completely.
func (s *Simulator) Run() {
	s.beginLoop()
	defer s.endLoop()
	for s.Step() {
	}
}

// RunUntil executes events with firing times <= deadline, advancing the
// clock to deadline afterwards even if the queue emptied earlier.
func (s *Simulator) RunUntil(deadline time.Duration) {
	s.beginLoop()
	defer s.endLoop()
	for {
		e := s.next()
		if e == nil || e.key.at > deadline {
			break
		}
		s.step(e)
	}
	if s.now < deadline {
		s.setNow(deadline)
	}
}

// RunFor advances the simulation by d of virtual time.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// peek reports the firing time of the earliest pending event.
func (s *Simulator) peek() (time.Duration, bool) {
	e := s.next()
	if e == nil {
		return 0, false
	}
	return e.key.at, true
}

// Ticker repeatedly invokes fn every interval until stopped. It re-arms one
// Timer, so a tick allocates nothing.
type Ticker struct {
	timer    Timer
	interval time.Duration
	fn       func()
	stopped  bool
}

// Every schedules fn to run every interval, first firing one interval from
// now. It panics if interval is not positive.
func (s *Simulator) Every(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker interval %v", interval))
	}
	t := &Ticker{interval: interval, fn: fn}
	t.timer.Init(s, t.tick)
	t.timer.Reset(interval)
	return t
}

// tick runs fn and re-arms afterwards, so whatever fn schedules for the
// same instant as the next tick fires before it.
func (t *Ticker) tick() {
	t.fn()
	if !t.stopped {
		t.timer.Reset(t.interval)
	}
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}
