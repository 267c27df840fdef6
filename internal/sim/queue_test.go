package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The event queue against a reference model. A storm is a seeded script of
// schedule / cancel / re-arm / ticker start / ticker stop / Timer.Reset /
// Timer.Stop operations, issued both from outside the run loop and from
// inside callbacks (including an event cancelling itself, a ticker stopping
// itself and a Timer re-arming itself). Every operation is applied to the
// simulator and to a model that keeps the pending timers in a map and finds
// the next one to fire by sorting on (time, scheduling order) — no heap, no
// positions to track. The simulator must fire exactly
// what the model says is next, at the model's time, and Pending must equal
// the model's live count after every operation and every step.

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
}

// storm delays come from a small set so equal firing times, and with them
// the (time, seq) tie-break, are common.
var stormDelays = []time.Duration{0, 0, 1, 1, 2, 3, 5, 8, 13, 1000}

func (st *storm) delay() time.Duration {
	return stormDelays[st.rng.Intn(len(stormDelays))] * time.Millisecond
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
	if got, want := st.s.Pending(), len(st.live); got != want {
		st.t.Fatalf("after %s: Pending() = %d, model has %d live timers", what, got, want)
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
		if !e.Fired() || e.Cancelled() {
			st.t.Fatalf("timer %d inside its callback: Fired=%v Cancelled=%v", id, e.Fired(), e.Cancelled())
		}
		if st.rng.Intn(3) == 0 {
			// Cancelling oneself from one's own callback is a no-op.
			e.Cancel()
			if e.Cancelled() {
				st.t.Fatalf("timer %d cancelled itself after firing", id)
			}
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
	_, pending := st.live[id]
	fired, cancelled := e.Fired(), e.Cancelled()
	e.Cancel()
	delete(st.live, id)
	switch {
	case pending && (!e.Cancelled() || e.Fired()):
		st.t.Fatalf("cancel of pending timer %d: Cancelled=%v Fired=%v", id, e.Cancelled(), e.Fired())
	case !pending && (e.Fired() != fired || e.Cancelled() != cancelled):
		st.t.Fatalf("cancel of spent timer %d changed it: Fired %v->%v Cancelled %v->%v",
			id, fired, e.Fired(), cancelled, e.Cancelled())
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
		if st.rng.Intn(3) == 0 {
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

func (st *storm) startTicker() {
	id := len(st.evs)
	st.evs = append(st.evs, nil)
	interval := st.delay() + time.Millisecond
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
	for i := 0; i < n; i++ {
		switch r := st.rng.Intn(14); {
		case r < 4 || len(st.evs) == 0:
			st.schedule()
		case r < 7:
			st.cancel(st.rng.Intn(len(st.evs)))
		case r < 8:
			// Re-arm, as a retransmission timer does: cancel, schedule anew.
			st.cancel(st.rng.Intn(len(st.evs)))
			st.schedule()
		case r < 9 && len(st.tickers) < 4:
			st.startTicker()
		case r >= 10 && r < 12:
			st.resetTimer(st.anyTimer())
		case r == 12:
			st.stopTimer(st.anyTimer())
		case r == 13:
			i := st.anyTimer()
			st.stopTimer(i)
			st.resetTimer(i)
		default:
			if id, ok := st.oldestTicker(); ok {
				st.stopTicker(id)
			}
		}
		st.check("op")
	}
}

func TestPropertyQueueMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		st := &storm{
			t: t, s: New(seed), rng: rand.New(rand.NewSource(seed)),
			live: map[int]refTimer{}, tickers: map[int]*Ticker{},
		}
		for round := 0; round < 200; round++ {
			st.ops(st.rng.Intn(6))
			switch st.rng.Intn(3) {
			case 0:
				_, pending := st.next()
				if stepped := st.s.Step(); stepped != pending {
					t.Fatalf("seed %d: Step() = %v with model pending = %v", seed, stepped, pending)
				}
			case 1:
				// peek-driven loop: everything due by the deadline fires,
				// nothing beyond it does.
				deadline := st.s.Now() + st.delay()
				st.s.RunUntil(deadline)
				if id, ok := st.next(); ok && st.live[id].at <= deadline {
					t.Fatalf("seed %d: timer %d due at %v survived RunUntil(%v)", seed, id, st.live[id].at, deadline)
				}
			}
			st.check("step")
		}
		for id, ok := st.oldestTicker(); ok; id, ok = st.oldestTicker() {
			st.stopTicker(id)
		}
		st.s.Run()
		if len(st.live) != 0 || st.s.Pending() != 0 {
			t.Fatalf("seed %d: drained run left %d model timers, Pending() = %d", seed, len(st.live), st.s.Pending())
		}
		if uint64(st.fired) != st.s.Fired {
			t.Fatalf("seed %d: simulator fired %d events, model saw %d", seed, st.s.Fired, st.fired)
		}
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
	if s.Pending() != 0 || !rtx.Cancelled() || rtx.Fired() {
		t.Fatalf("Pending() = %d Cancelled=%v Fired=%v after cancel", s.Pending(), rtx.Cancelled(), rtx.Fired())
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
