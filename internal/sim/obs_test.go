package sim

import (
	"testing"
	"time"

	"gq/internal/obs"
)

// TestObsClockTracksVirtualTime checks that snapshots taken off the
// simulator goroutine read the virtual clock, not wall time.
func TestObsClockTracksVirtualTime(t *testing.T) {
	s := New(1)
	s.Schedule(5*time.Second, func() {})
	s.Run()
	if got := s.Obs().Snapshot().SimTimeNS; got != 5*time.Second {
		t.Fatalf("snapshot sim time %v want 5s", got)
	}
}

// TestConcurrentSnapshotDuringRun drives a simulation whose events bump
// counters and journal entries while another goroutine repeatedly calls
// Snapshot(). Run under -race this verifies the advertised contract that
// snapshots are safe against a live simulation. The snapshotter starts once
// the first tick has fired, and the snapshots must see the tick counter move:
// they overlapped a running loop, not one that had not started or had ended.
func TestConcurrentSnapshotDuringRun(t *testing.T) {
	s := New(1)
	c := s.Obs().Reg.Counter("test.ticks")
	g := s.Obs().Reg.Gauge("test.level")
	h := s.Obs().Reg.Histogram("test.lat_us", 10, 100, 1000)
	sc := s.Obs().Scope("test", 32)
	ticked := make(chan struct{})
	tick := s.Every(time.Millisecond, func() {
		c.Inc()
		g.Set(int64(c.Value()))
		h.Observe(int64(c.Value() % 500))
		sc.Emit(obs.Event{Type: obs.EvFlowCreated, N: c.Value()})
		if c.Value() == 1 {
			close(ticked)
		}
	})
	defer tick.Stop()

	// At least 500 snapshots, and on until two tick counts were seen, within
	// a bound far above what any scheduling needs.
	const minSnaps, maxSnaps = 500, 1_000_000
	seen := map[uint64]bool{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ticked
		for i := 0; i < maxSnaps && (i < minSnaps || len(seen) < 2); i++ {
			snap := s.Obs().Snapshot()
			if snap.SimTimeNS < 0 {
				t.Error("negative sim time")
				return
			}
			seen[snap.Counter("test.ticks")] = true
		}
	}()
	// Keep the virtual clock moving until the snapshotter finishes so the
	// two genuinely overlap.
	for {
		select {
		case <-done:
			if len(seen) < 2 {
				t.Fatalf("snapshots saw test.ticks take %d value(s), want at least 2", len(seen))
			}
			return
		default:
			s.RunFor(10 * time.Millisecond)
		}
	}
}
