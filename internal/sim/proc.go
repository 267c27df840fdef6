package sim

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// This file provides the two bridges between ordinary Go goroutines and
// the single-threaded event loop, in increasing order of generality and
// decreasing order of determinism:
//
//   - Proc: a goroutine *coupled* to the simulator. At any instant either
//     the event loop runs or the proc runs, never both; control transfers
//     through an unbuffered-channel rendezvous. Park/Unpark/Sleep are
//     therefore deterministic — the proc is just a resumable coroutine
//     whose wake-ups are ordinary events — and procs work inside sharded
//     domains without disturbing byte-identical replay. This is the only
//     bridge allowed in determinism-checked topologies (chaos soak,
//     TestShardDeterminism).
//
//   - Inject + Pump: a thread-safe mailbox for *alien* goroutines the
//     simulator cannot track (stdlib net/http spawns its own, an operator's
//     HTTP request arrives on one). Injected closures run on the domain's
//     own goroutine at the domain's clock; Pump drives a standalone loop
//     while yielding real time to the aliens so their next injections can
//     land before virtual time runs away from them. When an injection
//     lands relative to virtual time depends on the OS scheduler, so a run
//     that injects while the simulation is advancing is NOT
//     byte-deterministic (one that injects only between Run calls is).
//
// DESIGN.md §3e states the rules; internal/hostnet and
// internal/ops are the consumers.

// goid returns the calling goroutine's id, parsed from the first line of
// runtime.Stack ("goroutine 123 [running]:"). runtime.Stack makes it cost
// microseconds (3 µs from a shallow stack, some 15 µs from inside a farm
// run), so it is for facade entry points and the start of a run loop: a
// coordinator looks it up once per goroutine per RunUntil, never per
// window, let alone per event. It reads the stack into goidBuf under goidMu
// because a local buffer escapes through runtime.Stack, which would cost
// every Run, RunFor and RunUntil an allocation.
func goid() int64 {
	goidMu.Lock()
	defer goidMu.Unlock()
	n := runtime.Stack(goidBuf[:], false)
	const prefix = len("goroutine ")
	var id int64
	for _, c := range goidBuf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	if id == 0 {
		panic("sim: cannot parse goroutine id")
	}
	return id
}

var (
	goidMu  sync.Mutex
	goidBuf [64]byte
)

// Proc is a goroutine coupled to a Simulator's event loop. Exactly one of
// {event loop, proc} executes at a time; the handoff is two unbuffered
// channels, so every switch is a synchronized rendezvous with a total
// order — which is what keeps proc-driven workloads replayable.
//
// A proc may freely use its Simulator (Schedule, Rand, Obs, hosts living
// on it) while running, because the loop is provably suspended. It gives
// up control with Park or Sleep and is resumed by Unpark from an event
// callback (or by the timer Sleep plants).
type Proc struct {
	sim  *Simulator
	name string
	gid  int64

	// resume releases the proc to run; yield returns control to the
	// resumer. Both unbuffered: each transfer is a rendezvous.
	resume chan struct{}
	yield  chan struct{}

	// parked and done are only ever accessed by whichever side holds
	// control, and every handoff is a channel synchronization, so they
	// need no further locking.
	parked bool
	done   bool
}

// Go spawns fn as a proc coupled to s and runs it until its first Park
// (or until it returns). The caller blocks for that first slice, so after
// Go returns the proc is either parked or finished — there is never a
// half-started proc racing the event loop.
func (s *Simulator) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		sim:    s,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	go func() {
		p.gid = goid()
		s.registerProc(p)
		<-p.resume
		fn(p)
		p.done = true
		s.unregisterProc(p.gid)
		p.yield <- struct{}{}
	}()
	p.resume <- struct{}{}
	<-p.yield
	return p
}

// Park suspends the proc and returns control to whoever resumed it. It
// returns when some event calls Unpark. Must only be called from the
// proc's own goroutine.
func (p *Proc) Park() {
	p.parked = true
	p.yield <- struct{}{}
	<-p.resume
}

// Unpark resumes a parked proc and blocks until it parks again or
// finishes. Call it from an event callback (or between Run calls) on the
// proc's simulator — never from another proc or an alien goroutine.
//
// Unparking a proc that is not parked panics: under the coupling
// discipline a proc is always parked when the loop runs, so a non-parked
// target means the discipline was broken somewhere else.
func (p *Proc) Unpark() {
	if p.done {
		return
	}
	if !p.parked {
		panic(fmt.Sprintf("sim: Unpark of proc %q which is not parked", p.name))
	}
	p.parked = false
	p.resume <- struct{}{}
	<-p.yield
}

// Sleep parks the proc for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	p.sim.Schedule(d, p.Unpark)
	p.Park()
}

func (s *Simulator) registerProc(p *Proc) {
	s.procsMu.Lock()
	if s.procs == nil {
		s.procs = make(map[int64]*Proc)
	}
	s.procs[p.gid] = p
	s.procsMu.Unlock()
}

func (s *Simulator) unregisterProc(gid int64) {
	s.procsMu.Lock()
	delete(s.procs, gid)
	s.procsMu.Unlock()
}

// CallerProc returns the Proc the calling goroutine was spawned as by
// s.Go, or nil. Facade layers use it to pick the deterministic parking
// path for proc callers and the Inject path for everything else.
func (s *Simulator) CallerProc() *Proc {
	s.procsMu.RLock()
	p := s.procs[goid()]
	s.procsMu.RUnlock()
	return p
}

// beginLoop marks the calling goroutine as the one executing s's event
// loop for the duration of a Run/RunUntil/Pump call; endLoop clears the
// mark. (A coordinator window stores the id its goroutine already knows.)
func (s *Simulator) beginLoop() { s.loopG.Store(goid()) }
func (s *Simulator) endLoop()   { s.loopG.Store(0) }

// OnEventLoop reports whether the calling goroutine is currently
// executing s's event loop. Blocking facade operations refuse to run in
// that position: parking there would deadlock the simulation.
func (s *Simulator) OnEventLoop() bool { return s.loopG.Load() == goid() }

// Inject hands fn in from an arbitrary goroutine to run on s's own
// goroutine at s's clock. It is the only Simulator entry point that is safe
// to call from outside while the simulation runs; every other method
// requires the caller to hold control of the loop.
//
// On a standalone simulator injected closures run in FIFO order before the
// next event fires. On a coordinated domain they become events of that
// domain at the next quiesce point — the start of the coordinator's next
// RunUntil, when every domain is parked — so they are journalled on the
// domain's stream and anything they send to another domain rides the
// regular Hop path. Either way, when an injection made while the
// simulation is advancing lands relative to virtual time depends on the OS
// scheduler; only injections made between Run calls replay byte-for-byte.
func (s *Simulator) Inject(fn func()) {
	if fn == nil {
		panic("sim: nil injected function")
	}
	s.injectMu.Lock()
	s.injected = append(s.injected, fn)
	s.injectMu.Unlock()
	s.injectN.Store(1)
	select {
	case s.injectSig <- struct{}{}: // wakes a Pump parked on an empty queue
	default:
	}
}

// takeInjected empties the mailbox. Called by the goroutine that holds
// control of s only.
func (s *Simulator) takeInjected() []func() {
	s.injectMu.Lock()
	fns := s.injected
	s.injected = nil
	s.injectN.Store(0)
	s.injectMu.Unlock()
	return fns
}

// drainInjected runs all closures handed over by Inject: the standalone
// simulator's side of the mailbox.
func (s *Simulator) drainInjected() {
	for s.injectN.Load() != 0 {
		for _, fn := range s.takeInjected() {
			fn()
		}
	}
}

// admitInjected turns the mailbox into events at the domain's clock: the
// coordinated domain's side, called by the coordinator while it is quiesced.
func (s *Simulator) admitInjected() {
	if s.injectN.Load() == 0 {
		return
	}
	for _, fn := range s.takeInjected() {
		s.ScheduleAt(s.now, fn)
	}
}

// Pacing constants for Pump: how long to wait for injections when the
// queue is empty, and the virtual gap beyond which Pump pauses briefly
// instead of leaping ahead (so alien goroutines — stdlib servers, HTTP
// clients — get real time to post their next operation before timers such
// as TCP retransmits fire en masse).
const (
	pumpIdleWait = time.Millisecond
	pumpBigGap   = 250 * time.Millisecond
)

// Pump drives the event loop for the benefit of detached (alien)
// goroutines, interleaving injected operations with events until stop
// reports true or virtual time would pass deadline. It returns whether
// stop was satisfied.
//
// Unlike Run/RunUntil, Pump paces itself against real time: before
// advancing the clock across a large gap it yields and briefly waits for
// injections, so an alien blocked in a facade Read gets its data before
// the retransmit timer for the same segment fires. This makes Pump
// correct for running unmodified stdlib network code, and unsuitable for
// determinism-checked experiments — see DESIGN.md §3e.
func (s *Simulator) Pump(deadline time.Duration, stop func() bool) bool {
	if stop == nil {
		panic("sim: Pump requires a stop predicate")
	}
	if s.coord != nil {
		panic("sim: Pump on a coordinated domain")
	}
	s.beginLoop()
	defer s.endLoop()
	for {
		s.drainInjected()
		if stop() {
			return true
		}
		next, ok := s.peek()
		if !ok {
			// Nothing scheduled: the only possible progress is an
			// injection from an alien goroutine.
			select {
			case <-s.injectSig:
			case <-time.After(pumpIdleWait):
			}
			continue
		}
		if next > deadline {
			return false
		}
		if gap := next - s.now; gap > 0 {
			// Give aliens the scheduler before skipping virtual time.
			runtime.Gosched()
			if s.injectN.Load() != 0 {
				continue
			}
			if gap >= pumpBigGap {
				select {
				case <-s.injectSig:
					continue
				case <-time.After(pumpIdleWait):
				}
			}
		}
		s.Step()
	}
}
