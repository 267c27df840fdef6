package ops

import (
	"sync"
	"testing"
	"time"

	"gq/internal/sim"
)

// TestDeadmanFiresOncePerStall drives the dead-man switch against a
// driver that is never Run: its progress stamp never advances, so the
// watch must fire — exactly once for the whole stall episode, however
// long it lasts.
func TestDeadmanFiresOncePerStall(t *testing.T) {
	drv := NewDriver(sim.New(1), 1)

	var mu sync.Mutex
	fired := 0
	var stalledAt time.Duration
	dm := NewDeadman(drv, 40*time.Millisecond, func(stalled time.Duration) {
		mu.Lock()
		fired++
		stalledAt = stalled
		mu.Unlock()
	})
	defer dm.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := fired
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deadman never fired against a stalled driver")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The stall persists; the switch must not keep firing.
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	n, at := fired, stalledAt
	mu.Unlock()
	if n != 1 {
		t.Fatalf("deadman fired %d times for one stall episode", n)
	}
	if at < 40*time.Millisecond {
		t.Fatalf("reported stall %v below budget", at)
	}

	// A "recovered" loop (fresh progress stamp) re-arms the episode latch;
	// the next stall past the budget trips it again.
	drv.progress.Store(time.Now().UnixNano())
	deadline = time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := fired
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deadman never re-armed after progress resumed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	dm.Stop()
	dm.Stop() // idempotent
}
