package sim

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestProcSleepWakesAtVirtualTime pins the core rendezvous contract: a
// proc's Sleep parks it and an ordinary timer event resumes it at the
// exact virtual instant, interleaved with other events in deterministic
// order.
func TestProcSleepWakesAtVirtualTime(t *testing.T) {
	s := New(1)
	var trace []string
	s.Schedule(5*time.Millisecond, func() {
		trace = append(trace, fmt.Sprintf("event@%v", s.Now()))
	})
	p := s.Go("sleeper", func(p *Proc) {
		trace = append(trace, fmt.Sprintf("proc-start@%v", s.Now()))
		p.Sleep(10 * time.Millisecond)
		trace = append(trace, fmt.Sprintf("proc-wake@%v", s.Now()))
	})
	s.Run()
	if !p.done {
		t.Fatal("proc did not finish")
	}
	want := []string{"proc-start@0s", "event@5ms", "proc-wake@10ms"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

// TestGoidConcurrent: goid reads every caller's stack through one shared
// buffer, so goroutines asking at once must each get their own id, the same
// every time they ask.
func TestGoidConcurrent(t *testing.T) {
	const goroutines, asks = 8, 200
	ids := make([]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = goid()
			for i := 0; i < asks; i++ {
				if id := goid(); id != ids[g] {
					t.Errorf("goroutine %d: id %d, then %d", g, ids[g], id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	seen := map[int64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("two goroutines got id %d", id)
		}
		seen[id] = true
	}
}

// TestProcParkUnpark checks the explicit handoff: an event callback
// unparks a waiting proc and regains control when the proc parks again.
func TestProcParkUnpark(t *testing.T) {
	s := New(1)
	var trace []string
	p := s.Go("worker", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Park()
			trace = append(trace, fmt.Sprintf("slice%d@%v", i, s.Now()))
		}
	})
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		s.Schedule(d, func() {
			trace = append(trace, fmt.Sprintf("pre@%v", s.Now()))
			p.Unpark()
			trace = append(trace, fmt.Sprintf("post@%v", s.Now()))
		})
	}
	s.Run()
	want := "[pre@1ms slice0@1ms post@1ms pre@2ms slice1@2ms post@2ms pre@3ms slice2@3ms post@3ms]"
	if fmt.Sprint(trace) != want {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	if !p.done {
		t.Fatal("proc did not finish")
	}
	p.Unpark() // done: must be a no-op, not a panic or hang
}

// TestProcUnparkNotParkedPanics pins the discipline violation loudly: a
// proc that is running is by definition not parked, so unparking it (here
// from its own goroutine, the only side that can hold control) panics.
func TestProcUnparkNotParkedPanics(t *testing.T) {
	s := New(1)
	var recovered any
	s.Go("self", func(p *Proc) {
		defer func() { recovered = recover() }()
		p.Unpark()
	})
	if recovered == nil {
		t.Fatal("expected panic from Unpark of a running proc")
	}
}

// TestCallerProc checks the registry resolves only from the proc's own
// goroutine.
func TestCallerProc(t *testing.T) {
	s := New(1)
	if s.CallerProc() != nil {
		t.Fatal("CallerProc outside any proc should be nil")
	}
	var got *Proc
	p := s.Go("me", func(p *Proc) {
		got = s.CallerProc()
	})
	s.Run()
	if got != p {
		t.Fatalf("CallerProc inside proc = %v, want %v", got, p)
	}
	if s.CallerProc() != nil {
		t.Fatal("registry entry should be gone after proc completion")
	}
}

// TestOnEventLoop checks the loop-goroutine mark is set exactly while
// Run executes events.
func TestOnEventLoop(t *testing.T) {
	s := New(1)
	if s.OnEventLoop() {
		t.Fatal("not running yet")
	}
	var during bool
	s.Schedule(0, func() { during = s.OnEventLoop() })
	s.Run()
	if !during {
		t.Fatal("OnEventLoop false inside an event callback")
	}
	if s.OnEventLoop() {
		t.Fatal("mark should clear after Run returns")
	}
}

// TestInjectAndPump exercises the alien-goroutine bridge: operations
// injected from a plain goroutine run on the loop, interleaved with
// timers, until the stop predicate holds.
func TestInjectAndPump(t *testing.T) {
	s := New(1)
	var mu sync.Mutex
	var got []string
	done := make(chan struct{})
	ticks := 0
	s.Every(time.Second, func() { ticks++ })
	go func() {
		for i := 0; i < 3; i++ {
			i := i
			ack := make(chan struct{})
			s.Inject(func() {
				mu.Lock()
				got = append(got, fmt.Sprintf("op%d", i))
				mu.Unlock()
				close(ack)
			})
			<-ack
		}
		close(done)
	}()
	ok := s.Pump(time.Hour, func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	})
	if !ok {
		t.Fatal("Pump hit deadline before aliens finished")
	}
	mu.Lock()
	defer mu.Unlock()
	want := "[op0 op1 op2]"
	if fmt.Sprint(got) != want {
		t.Fatalf("ops = %v, want %v", got, want)
	}
}

// TestPumpDeadline: with no injections and no satisfied predicate, Pump
// must stop at the virtual deadline rather than spin.
func TestPumpDeadline(t *testing.T) {
	s := New(1)
	s.Every(10*time.Minute, func() {})
	if ok := s.Pump(30*time.Minute, func() bool { return false }); ok {
		t.Fatal("predicate never true, Pump returned true")
	}
	if s.Now() != 30*time.Minute {
		t.Fatalf("clock = %v, want 30m", s.Now())
	}
}

// TestProcInDomainDeterministic runs proc-driven workloads inside a
// sharded simulation at 1 and 2 workers and demands identical traces:
// the coupling discipline must survive domains executing on helper
// goroutines.
func TestProcInDomainDeterministic(t *testing.T) {
	run := func(workers int) []string {
		root := New(42)
		c := NewCoordinator(root, 0, workers)
		var trace []string
		var mu sync.Mutex
		for i := 0; i < 3; i++ {
			i := i
			d := c.NewDomain()
			d.Go(fmt.Sprintf("proc%d", i), func(p *Proc) {
				for k := 0; k < 5; k++ {
					p.Sleep(time.Duration(i+1) * 7 * time.Millisecond)
					mu.Lock()
					trace = append(trace, fmt.Sprintf("p%d.%d@%v", i, k, d.Now()))
					mu.Unlock()
				}
			})
		}
		c.RunUntil(time.Second)
		// Order the trace by the deterministic (time, proc) key: domains
		// run concurrently, so append order across domains is not the
		// determinism surface — the virtual timestamps are.
		mu.Lock()
		defer mu.Unlock()
		out := append([]string(nil), trace...)
		sortStrings(out)
		return out
	}
	a, b := run(1), run(2)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("workers=1 vs workers=2 diverged:\n%v\n%v", a, b)
	}
	if len(a) != 15 {
		t.Fatalf("expected 15 wakeups, got %d: %v", len(a), a)
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
