package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(3*time.Second, func() { got = append(got, 3) })
	s.Schedule(1*time.Second, func() { got = append(got, 1) })
	s.Schedule(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("simultaneous events ran out of order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(time.Second, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

func TestFiredEventIsNotCancelled(t *testing.T) {
	s := New(1)
	ran := false
	e := s.Schedule(time.Second, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("event never ran")
	}
	if e.Cancelled() {
		t.Fatal("Cancelled() = true for an event that fired")
	}
	if !e.Fired() {
		t.Fatal("Fired() = false for an event that fired")
	}
	// Cancelling after the fact stays a no-op and must not flip Cancelled.
	e.Cancel()
	if e.Cancelled() {
		t.Fatal("Cancel after firing reported the event as cancelled")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var at []time.Duration
	s.Schedule(time.Second, func() {
		at = append(at, s.Now())
		s.Schedule(time.Second, func() { at = append(at, s.Now()) })
	})
	s.Run()
	if len(at) != 2 || at[0] != time.Second || at[1] != 2*time.Second {
		t.Fatalf("nested schedule times = %v", at)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	count := 0
	s.Every(time.Second, func() { count++ })
	s.RunUntil(5500 * time.Millisecond)
	if count != 5 {
		t.Fatalf("ticker fired %d times, want 5", count)
	}
	if s.Now() != 5500*time.Millisecond {
		t.Fatalf("Now = %v after RunUntil", s.Now())
	}
}

func TestRunForAdvancesIdleClock(t *testing.T) {
	s := New(1)
	s.RunFor(time.Minute)
	if s.Now() != time.Minute {
		t.Fatalf("Now = %v, want 1m", s.Now())
	}
}

func TestTickerStop(t *testing.T) {
	s := New(1)
	count := 0
	var tk *Ticker
	tk = s.Every(time.Second, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	s.RunFor(time.Minute)
	if count != 3 {
		t.Fatalf("ticker fired %d times after Stop, want 3", count)
	}
}

func TestScheduleAtPastClamps(t *testing.T) {
	s := New(1)
	s.RunFor(10 * time.Second)
	fired := time.Duration(-1)
	s.ScheduleAt(time.Second, func() { fired = s.Now() })
	s.Run()
	if fired != 10*time.Second {
		t.Fatalf("past event fired at %v, want clamped to 10s", fired)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		var out []int64
		for i := 0; i < 100; i++ {
			d := time.Duration(s.Rand().Intn(1000)) * time.Millisecond
			s.Schedule(d, func() { out = append(out, int64(s.Now()), s.Rand().Int63n(1e9)) })
		}
		s.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic event counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestWallClock(t *testing.T) {
	s := New(1)
	s.RunFor(90 * time.Minute)
	want := Epoch.Add(90 * time.Minute)
	if !s.WallClock().Equal(want) {
		t.Fatalf("WallClock = %v, want %v", s.WallClock(), want)
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(7)
		var fired []time.Duration
		for _, d := range delays {
			s.Schedule(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, s.Now())
			})
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
