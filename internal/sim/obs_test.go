package sim

import (
	"math/rand"
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

// TestObservedNowMirrorsNow pins the observer mirror to the clock, which
// setNow writes only when the clock moves: inside every callback of a storm
// whose events mostly share an instant, after a RunUntil past an empty
// queue, and in every domain of a coordinated run.
func TestObservedNowMirrorsNow(t *testing.T) {
	check := func(s *Simulator, where string) {
		t.Helper()
		if got, want := s.ObservedNow(), s.Now(); got != want {
			t.Fatalf("%s: ObservedNow %v, Now %v", where, got, want)
		}
	}

	s := New(3)
	rng := rand.New(rand.NewSource(3))
	fired, budget := 0, 20_000
	var storm func()
	storm = func() {
		fired++
		check(s, "storm callback")
		for n := rng.Intn(4); n > 0 && budget > 0; n-- {
			budget--
			d := time.Duration(0)
			if rng.Intn(4) == 0 {
				d = time.Duration(rng.Intn(5)) * time.Microsecond
			}
			s.Schedule(d, storm)
		}
	}
	for i := 0; i < 64; i++ {
		s.Schedule(time.Duration(i%4)*time.Microsecond, storm)
	}
	s.Run()
	if fired < 10_000 {
		t.Fatalf("storm fired %d events, want at least 10,000", fired)
	}
	check(s, "after Run")
	s.RunUntil(s.Now() + time.Second)
	check(s, "after RunUntil past an empty queue")
	s.RunFor(0)
	check(s, "after RunFor(0)")

	root := New(5)
	root.RunFor(time.Millisecond)
	c := NewCoordinator(root, time.Millisecond, 2)
	doms := []*Simulator{root, c.NewDomain(), c.NewDomain(), c.NewDomain()}
	for _, d := range doms[1:] {
		check(d, "new domain")
	}
	mismatches := make([]int, len(doms))
	for i, d := range doms {
		d.Every(time.Duration(i+1)*100*time.Microsecond, func() {
			if d.ObservedNow() != d.Now() {
				mismatches[i]++
			}
			d.Schedule(0, func() {
				if d.ObservedNow() != d.Now() {
					mismatches[i]++
				}
			})
			next := doms[(i+1)%len(doms)]
			postTo(d, next, time.Millisecond, func() {
				if next.ObservedNow() != next.Now() {
					mismatches[next.shard]++
				}
			})
		})
	}
	c.RunUntil(50*time.Millisecond + 50*time.Microsecond)
	for i, d := range doms {
		if mismatches[i] != 0 {
			t.Fatalf("domain %d: ObservedNow differed from Now in %d callbacks", i, mismatches[i])
		}
		check(d, "domain after the coordinated run")
	}
}
