package sim

import (
	"math/rand"
	"testing"
	"time"
)

func testLadder(s *Simulator) *Ladder {
	return NewLadder(s, LadderConfig{
		Backoff: 5 * time.Second, BackoffMax: 30 * time.Second, Jitter: 0.5,
		Window: 10 * time.Minute, Threshold: 3,
	})
}

// Delay doubles the backoff to its cap, stretches each delay by
// draw×Jitter of itself, and consumes exactly one RNG draw per call — the
// property journals depend on. Reset returns to the first rung.
func TestLadderDelay(t *testing.T) {
	const seed = 42
	s := New(seed)
	shadow := rand.New(rand.NewSource(seed)) // the draws s.Rand() will make
	l := testLadder(s)
	step := func(name string, base time.Duration) {
		t.Helper()
		want := base + time.Duration(shadow.Float64()*0.5*float64(base))
		if got := l.Delay(); got != want {
			t.Fatalf("%s: delay %v, want %v (base %v plus one draw of jitter)", name, got, want, base)
		}
	}
	for i, base := range []time.Duration{5, 10, 20, 30, 30} {
		step("climb "+string(rune('0'+i)), base*time.Second)
	}
	l.Reset()
	step("after reset", 5*time.Second)
	// Neither the breaker nor Reset draws: the streams are still in step.
	l.Record()
	l.Tripped()
	l.Reset()
	l.Clear()
	if got, want := s.Rand().Int63(), shadow.Int63(); got != want {
		t.Fatalf("RNG stream out of step: ladder drew something other than one Float64 per Delay")
	}
}

// The breaker counts attempts inside a sliding window. A client picks its
// order: Record-then-Tripped charges the failure in hand (raw-iron),
// Tripped-then-Record charges only attempts already made (restarts) — so
// the first trips on the Threshold-th failure, the second refuses the
// (Threshold+1)-th attempt.
func TestLadderBreaker(t *testing.T) {
	at := func(s *Simulator, d time.Duration) { s.RunUntil(d) }

	t.Run("record then check", func(t *testing.T) {
		s := New(1)
		l := testLadder(s)
		for i, want := range []bool{false, false, true} {
			at(s, time.Duration(i)*time.Minute)
			l.Record()
			if got := l.Tripped(); got != want {
				t.Fatalf("failure %d: tripped=%v, want %v", i+1, got, want)
			}
		}
	})

	t.Run("check then record", func(t *testing.T) {
		s := New(1)
		l := testLadder(s)
		for i, want := range []bool{false, false, false, true} {
			at(s, time.Duration(i)*time.Minute)
			if got := l.Tripped(); got != want {
				t.Fatalf("attempt %d: tripped=%v, want %v", i+1, got, want)
			}
			l.Record()
		}
	})

	t.Run("window prunes", func(t *testing.T) {
		s := New(1)
		l := testLadder(s)
		l.Record() // t=0
		at(s, 6*time.Minute)
		l.Record()
		at(s, 10*time.Minute) // t=0 is exactly Window old: still counts
		l.Record()
		if !l.Tripped() || l.Load() != 3 {
			t.Fatalf("at the window edge: tripped=%v load=%d, want tripped with 3", l.Tripped(), l.Load())
		}
		at(s, 10*time.Minute+time.Nanosecond)
		if l.Tripped() || l.Load() != 2 {
			t.Fatalf("past the window: load=%d, want the t=0 attempt pruned", l.Load())
		}
		// Recovery resets the backoff but not the breaker: flapping still
		// trips it. Only Clear forgets.
		l.Reset()
		l.Record()
		if !l.Tripped() {
			t.Fatal("Reset cleared the breaker history")
		}
		l.Clear()
		if l.Tripped() || l.Load() != 0 {
			t.Fatalf("Clear left load=%d", l.Load())
		}
	})
}
