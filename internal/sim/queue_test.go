package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

// The event queue against a reference model. A storm is a seeded script of
// schedule / cancel / re-arm / ticker start / ticker stop / Timer.Reset /
// Timer.Stop / lane operations, issued both from outside the run loop and from
// inside callbacks (including an event cancelling itself, a ticker stopping
// itself and a Timer re-arming itself). Every operation is applied to the
// simulator and to a model that keeps the pending timers in a map and finds
// the next one to fire by sorting on (time, scheduling order) — no heap, no
// positions to track, and no notion of the simulator's near and far heaps.
// The simulator must fire exactly what the model says is next, at the
// model's time, and Pending must equal the model's live count after every
// operation and every step.

type refTimer struct {
	at     time.Duration
	seq    uint64
	ticker bool
}

type storm struct {
	t   *testing.T
	s   *Simulator
	rng *rand.Rand

	seq     uint64           // mirrors the simulator's scheduling counter
	live    map[int]refTimer // the model: pending timers by id
	evs     []*Event         // one-shot events by id (nil for ticker and timer ids)
	tickers map[int]*Ticker  // tickers by id, started and not yet stopped
	timers  []*Timer         // re-armable timers, in creation order
	timerID []int            // timers[i]'s id
	fired   int

	// lane is what a netsim port does with its frames in flight: each
	// firing's key is stamped when it is sent (Simulator.Stamp), the keys
	// wait in order, and only the earliest is armed, on landing
	// (Timer.ResetAt). The model holds every stamped key as a live timer.
	lane    []laneEntry
	landing *Timer

	// over, when set, reports that the script has run out (FuzzEventQueue):
	// from then on callbacks start nothing new, so every run loop ends.
	over func() bool
	// draining is set for the final Run: no new tickers, or a millisecond
	// ticker would tick its way to the last 35 s timer.
	draining bool
}

type laneEntry struct {
	key Key
	id  int
}

func newStorm(t *testing.T, seed int64, src rand.Source) *storm {
	return &storm{
		t: t, s: New(seed), rng: rand.New(src),
		live: map[int]refTimer{}, tickers: map[int]*Ticker{},
	}
}

func (st *storm) scriptOver() bool { return st.over != nil && st.over() }

// storm delays come from a small set so equal firing times, and with them
// the (time, seq) tie-break, are common. The set straddles farHorizon, so
// timers land in both heaps, sit either side of the boundary, and — behind
// frame-scale events that move the clock a millisecond at a time — are
// overtaken while still in the far one.
var stormDelays = append(shortDelays[:len(shortDelays):len(shortDelays)],
	1000*ms, farHorizon-1, farHorizon, 10*time.Second, 35*time.Second)

// shortDelays are the frame-scale ones: ticker intervals and RunUntil spans
// draw from these alone, because they set how many ticks a round costs.
var shortDelays = []time.Duration{0, 0, ms, ms, 2 * ms, 3 * ms, 5 * ms, 8 * ms, 13 * ms}

const ms = time.Millisecond

func (st *storm) delay() time.Duration {
	return stormDelays[st.rng.Intn(len(stormDelays))]
}

func (st *storm) shortDelay() time.Duration {
	return shortDelays[st.rng.Intn(len(shortDelays))]
}

// next is the reference: sort the pending timers, take the first.
func (st *storm) next() (id int, ok bool) {
	ids := make([]int, 0, len(st.live))
	for id := range st.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := st.live[ids[i]], st.live[ids[j]]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
	if len(ids) == 0 {
		return 0, false
	}
	return ids[0], true
}

func (st *storm) check(what string) {
	st.t.Helper()
	// A lane's keys behind its head are live in the model but not queued.
	waiting := max(len(st.lane)-1, 0)
	if got, want := st.s.Pending(), len(st.live)-waiting; got != want {
		st.t.Fatalf("after %s: Pending() = %d, model has %d live timers, %d of them waiting in the lane",
			what, got, len(st.live), waiting)
	}
}

// arm records a timer the simulator is about to schedule d from now.
func (st *storm) arm(id int, d time.Duration, ticker bool) {
	st.live[id] = refTimer{at: st.s.Now() + d, seq: st.seq, ticker: ticker}
	st.seq++
}

// onFire is the head of every callback: the timer firing must be the one
// the model sorts first, at its time.
func (st *storm) onFire(id int) {
	st.t.Helper()
	want, ok := st.next()
	if !ok || want != id {
		st.t.Fatalf("timer %d fired; model expected %d (pending=%v)", id, want, ok)
	}
	if at := st.live[id].at; st.s.Now() != at {
		st.t.Fatalf("timer %d fired at %v, model says %v", id, st.s.Now(), at)
	}
	delete(st.live, id)
	st.fired++
}

func (st *storm) schedule() {
	id, d := len(st.evs), st.delay()
	st.arm(id, d, false)
	st.evs = append(st.evs, nil)
	st.evs[id] = st.s.Schedule(d, func() {
		st.onFire(id)
		e := st.evs[id]
		if e.pos != 0 {
			st.t.Fatalf("timer %d still queued inside its callback", id)
		}
		if st.rng.Intn(3) == 0 {
			// Cancelling oneself from one's own callback is a no-op.
			e.Cancel()
			st.check("self-cancel")
		}
		st.ops(st.rng.Intn(4))
	})
}

// cancel hits any one-shot event ever scheduled: pending, fired or already
// cancelled. Only the first case may change anything.
func (st *storm) cancel(id int) {
	e := st.evs[id]
	if e == nil {
		return
	}
	e.Cancel()
	delete(st.live, id)
	if e.pos != 0 {
		st.t.Fatalf("cancel of timer %d left it queued", id)
	}
	st.check(fmt.Sprintf("cancel(%d)", id))
}

// newTimer adds an idle re-armable timer. Its callback re-arms it one time
// in three — Reset from inside one's own firing — before running further
// operations, which may well hit the same timer again.
func (st *storm) newTimer() int {
	i, id := len(st.timers), len(st.evs)
	st.evs = append(st.evs, nil)
	tm := new(Timer)
	tm.Init(st.s, func() {
		st.onFire(id)
		if tm.Pending() {
			st.t.Fatalf("timer %d pending inside its own callback", id)
		}
		if !st.scriptOver() && st.rng.Intn(3) == 0 {
			st.resetTimer(i)
		}
		st.ops(st.rng.Intn(3))
	})
	st.timers = append(st.timers, tm)
	st.timerID = append(st.timerID, id)
	return i
}

// resetTimer re-arms timers[i], pending or idle: in the model the old
// firing is gone and the new one takes the next scheduling number, exactly
// as for a cancel followed by a schedule.
func (st *storm) resetTimer(i int) {
	id, d := st.timerID[i], st.delay()
	st.arm(id, d, false)
	st.timers[i].Reset(d)
	if !st.timers[i].Pending() {
		st.t.Fatalf("timer %d idle after Reset", id)
	}
	st.check(fmt.Sprintf("Timer.Reset(%d)", id))
}

func (st *storm) stopTimer(i int) {
	id := st.timerID[i]
	st.timers[i].Stop()
	delete(st.live, id)
	if st.timers[i].Pending() {
		st.t.Fatalf("timer %d pending after Stop", id)
	}
	st.check(fmt.Sprintf("Timer.Stop(%d)", id))
}

// anyTimer picks one of the timers, creating one while there are few.
func (st *storm) anyTimer() int {
	if len(st.timers) < 6 && st.rng.Intn(len(st.timers)+1) == 0 {
		return st.newTimer()
	}
	return st.rng.Intn(len(st.timers))
}

// send stamps a key for a firing d from now — in the model, a timer armed
// now — and files it in the lane, arming landing when it is the new head.
func (st *storm) send() {
	if st.landing == nil {
		st.landing = new(Timer)
		st.landing.Init(st.s, st.land)
	}
	id, d := len(st.evs), st.delay()
	st.evs = append(st.evs, nil)
	st.arm(id, d, false)
	k := st.s.Stamp(d)
	i := len(st.lane)
	for i > 0 && k.Before(st.lane[i-1].key) {
		i--
	}
	st.lane = slices.Insert(st.lane, i, laneEntry{k, id})
	if i == 0 {
		st.landing.ResetAt(k)
	}
	st.check(fmt.Sprintf("lane send(%d)", id))
}

// land is the lane head firing: arm the next key, then run on.
func (st *storm) land() {
	st.onFire(st.lane[0].id)
	if st.lane = st.lane[1:]; len(st.lane) > 0 {
		st.landing.ResetAt(st.lane[0].key)
	}
	st.ops(st.rng.Intn(3))
}

func (st *storm) startTicker() {
	id := len(st.evs)
	st.evs = append(st.evs, nil)
	interval := st.shortDelay() + time.Millisecond
	st.arm(id, interval, true)
	st.tickers[id] = st.s.Every(interval, func() {
		st.onFire(id)
		st.ops(st.rng.Intn(3))
		if _, running := st.tickers[id]; running {
			// Ticker.tick re-arms after the callback returns, so the next
			// firing takes the next scheduling number from here.
			st.arm(id, interval, true)
		}
	})
}

func (st *storm) stopTicker(id int) {
	st.tickers[id].Stop()
	delete(st.tickers, id)
	delete(st.live, id)
	// From inside the ticker's own callback the pending count is already
	// without it; from outside, Stop removed its event.
	st.check(fmt.Sprintf("Ticker.Stop(%d)", id))
}

// oldestTicker picks the running ticker with the lowest id, so a seed
// replays the same storm whatever the map order.
func (st *storm) oldestTicker() (id int, ok bool) {
	for t := range st.tickers {
		if !ok || t < id {
			id, ok = t, true
		}
	}
	return id, ok
}

func (st *storm) ops(n int) {
	for i := 0; i < n && !st.scriptOver(); i++ {
		switch r := st.rng.Intn(16); {
		case r < 4 || len(st.evs) == 0:
			st.schedule()
		case r < 7:
			st.cancel(st.rng.Intn(len(st.evs)))
		case r < 8:
			// Re-arm, as a retransmission timer does: cancel, schedule anew.
			st.cancel(st.rng.Intn(len(st.evs)))
			st.schedule()
		case r < 9 && len(st.tickers) < 4 && !st.draining:
			st.startTicker()
		case r >= 10 && r < 12:
			st.resetTimer(st.anyTimer())
		case r == 12:
			st.stopTimer(st.anyTimer())
		case r == 13:
			i := st.anyTimer()
			st.stopTimer(i)
			st.resetTimer(i)
		case r >= 14:
			st.send()
		default:
			if id, ok := st.oldestTicker(); ok {
				st.stopTicker(id)
			}
		}
		st.check("op")
	}
}

// round issues a few operations and then advances the simulator one of
// three ways: a single Step, a RunUntil whose deadline may fall anywhere
// among the pending timers, or not at all.
func (st *storm) round() {
	st.ops(st.rng.Intn(6))
	switch st.rng.Intn(3) {
	case 0:
		_, pending := st.next()
		if stepped := st.s.Step(); stepped != pending {
			st.t.Fatalf("Step() = %v with model pending = %v", stepped, pending)
		}
	case 1:
		// next-driven loop: everything due by the deadline fires,
		// nothing beyond it does.
		deadline := st.s.Now() + st.shortDelay()*10
		st.s.RunUntil(deadline)
		if id, ok := st.next(); ok && st.live[id].at <= deadline {
			st.t.Fatalf("timer %d due at %v survived RunUntil(%v)", id, st.live[id].at, deadline)
		}
	}
	st.check("step")
}

// finish stops the tickers and drains the queue: model and simulator must
// run dry together, having fired the same number of events.
func (st *storm) finish() {
	st.draining = true
	for id, ok := st.oldestTicker(); ok; id, ok = st.oldestTicker() {
		st.stopTicker(id)
	}
	st.s.Run()
	if len(st.live) != 0 || st.s.Pending() != 0 {
		st.t.Fatalf("drained run left %d model timers, Pending() = %d", len(st.live), st.s.Pending())
	}
	if uint64(st.fired) != st.s.Fired {
		st.t.Fatalf("simulator fired %d events, model saw %d", st.s.Fired, st.fired)
	}
}

func TestPropertyQueueMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			st := newStorm(t, seed, rand.NewSource(seed))
			for round := 0; round < 200; round++ {
				st.round()
			}
			st.finish()
		})
	}
}

// script is a rand.Source that replays fuzz input: four bytes per draw, so
// the fuzzer steers every choice the storm makes — which operation, which
// timer, which delay — and mutating one byte changes one choice.
type script struct {
	b []byte
}

func (sc *script) Seed(int64) {}

func (sc *script) over() bool { return len(sc.b) == 0 }

func (sc *script) Int63() int64 {
	var v uint32
	for i := 0; i < 4 && len(sc.b) > 0; i++ {
		v = v<<8 | uint32(sc.b[0])
		sc.b = sc.b[1:]
	}
	return int64(v>>1) << 32 // rand.Rand.Intn reads the top 31 bits
}

// FuzzEventQueue runs the reference-model storm from a fuzzer-written
// script instead of a seeded one: every schedule / cancel / Timer.Reset /
// Stop / ticker / lane send / Step / RunUntil sequence the bytes spell out must fire in
// the model's (time, seq) order with Pending equal to its live count.
func FuzzEventQueue(f *testing.F) {
	// Short seeds: the engine minimises every input that adds coverage, one
	// byte at a time, and a long script makes that its whole budget.
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1024 {
			b = b[:1024] // the model sorts every pending timer per firing
		}
		sc := &script{b: b}
		st := newStorm(t, 1, sc)
		st.over = sc.over
		for !sc.over() {
			st.round()
		}
		st.finish()
	})
}

// firingLog gives the near/far cases callbacks that record their name, and
// the names in firing order.
func firingLog() (note func(name string) func(), fired func() string) {
	var log []string
	note = func(name string) func() { return func() { log = append(log, name) } }
	return note, func() string { return fmt.Sprint(log) }
}

// queued reports which heap holds e: "near", "far", or "" when not pending.
func queued(s *Simulator, e *Event) string {
	switch {
	case e.pos == 0:
		return ""
	case e.far && s.far[e.pos-1] == e:
		return "far"
	case !e.far && s.near[e.pos-1] == e:
		return "near"
	}
	return "lost"
}

// TestNearFarEqualTimesFireBySeq: two events due at the same instant, one
// in each heap, fire in scheduling order — the heap an event sits in is
// not part of the order.
func TestNearFarEqualTimesFireBySeq(t *testing.T) {
	s := New(1)
	note, fired := firingLog()
	at := 2 * farHorizon
	a := s.ScheduleAt(at, note("far-first"))
	s.RunUntil(at - ms)
	b := s.Schedule(ms, note("near-second"))
	c := s.ScheduleAt(at, note("near-third"))
	if queued(s, a) != "far" || queued(s, b) != "near" || queued(s, c) != "near" {
		t.Fatalf("heaps: %q %q %q, want far near near", queued(s, a), queued(s, b), queued(s, c))
	}
	if a.key.at != b.key.at || s.Pending() != 3 {
		t.Fatalf("setup: at %v vs %v, Pending %d", a.key.at, b.key.at, s.Pending())
	}
	s.Run()
	if got := fired(); got != "[far-first near-second near-third]" {
		t.Fatalf("fired %s", got)
	}
}

// TestFarEventOvertakenByClock: a timer filed in the far heap stays there
// as the clock closes in on it and fires from there, between the near
// events either side of it.
func TestFarEventOvertakenByClock(t *testing.T) {
	s := New(1)
	note, fired := firingLog()
	far := s.Schedule(time.Second, note("far@1s"))
	s.RunUntil(900 * ms)
	s.Schedule(50*ms, func() {
		if queued(s, far) != "far" {
			t.Errorf("50 ms before it is due the timer is in %q, want far", queued(s, far))
		}
		note("near@950ms")()
	})
	s.Schedule(200*ms, note("near@1.1s"))
	s.Run()
	if got := fired(); got != "[near@950ms far@1s near@1.1s]" {
		t.Fatalf("fired %s", got)
	}
	if s.Now() != 1100*ms || far.pos != 0 {
		t.Fatalf("now %v, far queued %v", s.Now(), far.pos != 0)
	}
}

// TestTimerResetMovesBetweenHeaps: Reset files the timer by its new delay
// every time, and Stop and Cancel find an event in whichever heap has it.
func TestTimerResetMovesBetweenHeaps(t *testing.T) {
	s := New(1)
	s.RunUntil(7 * ms) // file by distance from the clock, not from zero
	fired := 0
	var tm Timer
	tm.Init(s, func() { fired++ })
	for i, step := range []struct {
		d    time.Duration
		heap string
	}{
		{10 * time.Second, "far"}, {ms, "near"}, {35 * time.Second, "far"},
		{farHorizon - 1, "near"}, {farHorizon, "far"},
	} {
		tm.Reset(step.d)
		if got := queued(s, &tm.ev); got != step.heap {
			t.Fatalf("step %d: Reset(%v) filed the timer in %q, want %q", i, step.d, got, step.heap)
		}
		if s.Pending() != 1 || len(s.near)+len(s.far) != 1 || tm.ev.key.at != s.Now()+step.d {
			t.Fatalf("step %d: Pending %d, near %d far %d, at %v", i, s.Pending(), len(s.near), len(s.far), tm.ev.key.at)
		}
	}
	tm.Stop() // from the far heap
	tm.Stop()
	if tm.Pending() || s.Pending() != 0 {
		t.Fatalf("after Stop: timer pending %v, Pending %d", tm.Pending(), s.Pending())
	}
	tm.Reset(ms)
	near := s.Schedule(2*ms, func() { fired += 10 })
	far := s.Schedule(time.Minute, func() { fired += 100 })
	tm.Stop() // from the near heap
	near.Cancel()
	if s.Pending() != 1 || queued(s, far) != "far" {
		t.Fatalf("after near Stop/Cancel: Pending %d, far event in %q", s.Pending(), queued(s, far))
	}
	far.Cancel()
	far.Cancel()
	if s.Pending() != 0 || near.pos != 0 || far.pos != 0 {
		t.Fatalf("after Cancel: Pending %d, queued %v %v", s.Pending(), near.pos != 0, far.pos != 0)
	}
	s.Run()
	if fired != 0 {
		t.Fatalf("stopped and cancelled events fired: %d", fired)
	}
}

// TestRunUntilDeadlineBetweenHeapTops: the deadline test looks at the
// earlier of the two tops, whichever heap it is in.
func TestRunUntilDeadlineBetweenHeapTops(t *testing.T) {
	// Near top first: the far timer must survive the deadline.
	s := New(1)
	note, fired := firingLog()
	s.Schedule(5*ms, note("near"))
	far := s.Schedule(600*ms, note("far"))
	s.RunUntil(100 * ms)
	if fired() != "[near]" || s.Now() != 100*ms || s.Pending() != 1 || queued(s, far) != "far" {
		t.Fatalf("near-first: fired %v, now %v, Pending %d", fired(), s.Now(), s.Pending())
	}
	// Far top first: a younger near event due after it must survive.
	s.RunUntil(590 * ms)
	near := s.Schedule(100*ms, note("near2"))
	s.RunUntil(650 * ms)
	if fired() != "[near far]" || s.Now() != 650*ms || s.Pending() != 1 || queued(s, near) != "near" {
		t.Fatalf("far-first: fired %v, now %v, Pending %d", fired(), s.Now(), s.Pending())
	}
	if next, ok := s.peek(); !ok || next != 690*ms {
		t.Fatalf("peek = %v %v, want 690ms", next, ok)
	}
}

// TestEventSize: one Event is allocated per one-shot and every Timer embeds
// one, so its heap position and which heap share a word.
func TestEventSize(t *testing.T) {
	if got := reflect.TypeOf(Event{}).Size(); got > 40 {
		t.Fatalf("Event is %d bytes, want at most 40", got)
	}
}

// TestCancelLeavesQueueAtOnce is the eager-removal contract on its own: a
// cancelled event stops counting as pending immediately — not when the run
// loop would have reached it — and a re-armed timer never accumulates dead
// predecessors.
func TestCancelLeavesQueueAtOnce(t *testing.T) {
	s := New(1)
	var rtx *Event
	for i := 0; i < 1000; i++ {
		rtx.Cancel() // nil on the first pass: a no-op
		rtx = s.Schedule(time.Second, func() {})
		if s.Pending() != 1 {
			t.Fatalf("re-arm %d: Pending() = %d, want 1", i, s.Pending())
		}
	}
	rtx.Cancel()
	rtx.Cancel()
	if s.Pending() != 0 || rtx.pos != 0 {
		t.Fatalf("Pending() = %d, queued %v after cancel", s.Pending(), rtx.pos != 0)
	}
	if s.Step() {
		t.Fatal("Step ran something on an empty queue")
	}
}

// TestTimerResetAllocFree is the reason Timer exists: arming, re-arming,
// stopping and firing a caller-owned timer — and a Ticker's tick, which is
// built on one — never allocate.
func TestTimerResetAllocFree(t *testing.T) {
	s := New(1)
	fired := 0
	var tm Timer
	tm.Stop() // the zero Timer is idle: a no-op
	tm.Init(s, func() { fired++ })
	s.Every(time.Millisecond, func() { fired++ })
	s.RunFor(time.Second) // let the queue's backing array reach its size
	fired = 0
	allocs := testing.AllocsPerRun(100, func() {
		tm.Reset(time.Second)
		tm.Reset(2 * time.Millisecond) // replaces the pending firing
		tm.Stop()
		tm.Reset(time.Millisecond)
		for i := 0; i < 11; i++ { // ten ticks and the timer
			s.Step()
		}
	})
	if allocs != 0 {
		t.Errorf("Timer Reset/Stop/fire plus 10 ticks cost %v allocations, want 0", allocs)
	}
	if want := 101 * 11; fired != want { // AllocsPerRun adds one warm-up run
		t.Errorf("fired %d callbacks, want %d", fired, want)
	}
	if tm.Pending() || s.Pending() != 1 {
		t.Errorf("timer pending %v, queue holds %d events, want idle and the ticker alone", tm.Pending(), s.Pending())
	}
}

// TestRunLoopAllocFree: entering and leaving the run loop costs nothing.
// Each Run, RunFor and RunUntil looks up its goroutine id once to mark the
// loop (OnEventLoop), and that lookup must not put its stack buffer on the
// heap.
func TestRunLoopAllocFree(t *testing.T) {
	s := New(1)
	fired := 0
	var tm Timer
	tm.Init(s, func() { fired++ })
	allocs := testing.AllocsPerRun(100, func() {
		tm.Reset(time.Millisecond)
		s.RunFor(2 * time.Millisecond)
		tm.Reset(time.Millisecond)
		s.RunUntil(s.Now() + 2*time.Millisecond)
		tm.Reset(time.Millisecond)
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("RunFor, RunUntil and Run cost %v allocations, want 0", allocs)
	}
	if want := 101 * 3; fired != want { // AllocsPerRun adds one warm-up run
		t.Errorf("fired %d callbacks, want %d", fired, want)
	}
}
