package obs

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFanoutForwardsToInnerAndSubscribers(t *testing.T) {
	j := NewJournal(nil)
	var buf bytes.Buffer
	inner := j.AttachNDJSON(&buf)
	fan := NewFanout(inner)
	j.SetSink(fan)

	sub := fan.Subscribe(8, Filter{})
	sc := j.streams[0].Scope("sf", 4)
	sc.Emit(Event{Type: EvFlowCreated, N: 1})
	sc.Emit(Event{Type: EvFlowClosed, N: 2})
	inner.Flush()

	if got := bytes.Count(buf.Bytes(), []byte("\n")); got != 2 {
		t.Fatalf("inner sink saw %d lines", got)
	}
	evs := sub.Drain(nil)
	if len(evs) != 2 || evs[0].N != 1 || evs[1].N != 2 {
		t.Fatalf("subscriber drained %+v", evs)
	}
	if fan.Published() != 2 || fan.Dropped() != 0 {
		t.Fatalf("published=%d dropped=%d", fan.Published(), fan.Dropped())
	}
	// Drained ring is empty until the next emit.
	if evs := sub.Drain(nil); len(evs) != 0 {
		t.Fatalf("second drain returned %d events", len(evs))
	}
}

// TestFanoutDropOldest pins the bounded-ring contract: a subscriber that
// never drains loses the oldest events, counts the losses, and the sim-side
// emit path never blocks.
func TestFanoutDropOldest(t *testing.T) {
	fan := NewFanout(nil)
	sub := fan.Subscribe(4, Filter{})
	for i := 1; i <= 10; i++ {
		fan.WriteEvent(Event{Type: EvFlowCreated, N: uint64(i)})
	}
	evs := sub.Drain(nil)
	if len(evs) != 4 {
		t.Fatalf("ring held %d events, cap 4", len(evs))
	}
	for i, e := range evs {
		if e.N != uint64(i+7) {
			t.Fatalf("event %d has N=%d, want %d (drop-oldest)", i, e.N, i+7)
		}
	}
	if sub.Dropped() != 6 || fan.Dropped() != 6 {
		t.Fatalf("dropped sub=%d fan=%d, want 6", sub.Dropped(), fan.Dropped())
	}
}

func TestFanoutFilter(t *testing.T) {
	fan := NewFanout(nil)
	byScope := fan.Subscribe(8, ParseFilter("gw", ""))
	byType := fan.Subscribe(8, ParseFilter("", "chaos.,flow.verdict"))
	all := fan.Subscribe(8, ParseFilter("", ""))

	fan.WriteEvent(Event{Type: EvFlowCreated, Scope: "sf"})
	fan.WriteEvent(Event{Type: EvFlowVerdict, Scope: "sf"})
	fan.WriteEvent(Event{Type: "chaos.cs_crash", Scope: "chaos.sf"})
	fan.WriteEvent(Event{Type: EvFlowClosed, Scope: "gw"})

	if evs := byScope.Drain(nil); len(evs) != 1 || evs[0].Scope != "gw" {
		t.Fatalf("scope filter drained %+v", evs)
	}
	evs := byType.Drain(nil)
	if len(evs) != 2 || evs[0].Type != EvFlowVerdict || evs[1].Type != "chaos.cs_crash" {
		t.Fatalf("type filter drained %+v", evs)
	}
	if evs := all.Drain(nil); len(evs) != 4 {
		t.Fatalf("unfiltered drained %d", len(evs))
	}
	// Filtered-out events must not count as subscriber drops.
	if byScope.Dropped() != 0 {
		t.Fatalf("filter counted drops: %d", byScope.Dropped())
	}
}

func TestFanoutCloseDetaches(t *testing.T) {
	fan := NewFanout(nil)
	sub := fan.Subscribe(2, Filter{})
	fan.WriteEvent(Event{Type: EvFlowCreated})
	sub.Close()
	sub.Close() // idempotent
	fan.WriteEvent(Event{Type: EvFlowClosed})
	if fan.Subscribers() != 0 {
		t.Fatalf("%d subscribers after close", fan.Subscribers())
	}
	if evs := sub.Drain(nil); len(evs) != 1 {
		t.Fatalf("closed sub drained %d events, want the 1 pre-close", len(evs))
	}
}

// TestFanoutChurnStalledClient is the subscriber-churn race proof for the
// ops plane's worst hour, run under -race: one emitter (the sim
// goroutine) pushing through a real Journal into a Fanout over the
// primary NDJSON sink, one permanently stalled client whose tiny ring
// overflows on nearly every emit, and four goroutines doing exactly what
// the SSE handler does — subscribe, drain, render the drained events via
// Journal.RenderEvent, close — as fast as they can. Nothing may race,
// the emitter must never block, the primary stream must stay intact, and
// the loss accounting must reconcile: the fanout-wide drop counter
// equals the stalled client's evictions plus whatever the churners lost
// (their rings die young, they cannot drop much).
func TestFanoutChurnStalledClient(t *testing.T) {
	j := NewJournal(nil)
	var buf bytes.Buffer
	inner := j.AttachNDJSON(&buf)
	fan := NewFanout(inner)
	j.SetSink(fan)
	sc := j.streams[0].Scope("churn", 4)

	stalled := fan.Subscribe(2, Filter{})
	const emits = 5000

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < emits; i++ {
			sc.Emit(Event{Type: EvFlowCreated, N: uint64(i)})
		}
	}()

	var churnDropped atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var evs []Event
			var line []byte
			for i := 0; i < 200; i++ {
				sub := fan.Subscribe(4, Filter{})
				select {
				case <-sub.Notify():
				case <-time.After(100 * time.Microsecond):
				}
				// Render from this goroutine like the SSE handler: it must
				// be safe against the emitter's concurrent journal writes.
				evs = sub.Drain(evs[:0])
				for _, e := range evs {
					line = j.RenderEvent(line[:0], e)
				}
				// Count after Close: until then the emitter can still evict
				// from this ring, and the fanout-wide counter would see it.
				sub.Close()
				churnDropped.Add(sub.Dropped())
			}
		}()
	}
	<-done
	wg.Wait()
	// The NDJSON sink is single-goroutine by contract; flush only after
	// the emitter is done.
	inner.Flush()

	if fan.Published() != emits {
		t.Fatalf("published %d, want %d", fan.Published(), emits)
	}
	if got := bytes.Count(buf.Bytes(), []byte("\n")); got != emits {
		t.Fatalf("inner sink saw %d lines, want %d — churn corrupted the primary stream", got, emits)
	}
	if fan.Subscribers() != 1 {
		t.Fatalf("%d subscribers left, want only the stalled one", fan.Subscribers())
	}
	// The stalled ring holds the final 2 events; everything else it was
	// offered was evicted.
	if evs := stalled.Drain(nil); len(evs) != 2 || evs[len(evs)-1].N != emits-1 {
		t.Fatalf("stalled client drained %d events, tail %+v", len(evs), evs)
	}
	if want := uint64(emits - 2); stalled.Dropped() != want {
		t.Fatalf("stalled client dropped %d, want %d", stalled.Dropped(), want)
	}
	if got, want := fan.Dropped(), stalled.Dropped()+churnDropped.Load(); got != want {
		t.Fatalf("fanout-wide drops %d, want %d (stalled %d + churn %d)",
			got, want, stalled.Dropped(), churnDropped.Load())
	}
	stalled.Close()
}

// TestFanoutConcurrent drives the advertised concurrency contract under
// -race: one emitter (the sim goroutine) against subscribers that attach,
// drain, and detach concurrently.
func TestFanoutConcurrent(t *testing.T) {
	fan := NewFanout(nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			fan.WriteEvent(Event{Type: EvFlowCreated, N: uint64(i)})
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sub := fan.Subscribe(16, Filter{})
				// Edge-triggered wait; time out rather than park forever
				// once the emitter has finished.
				select {
				case <-sub.Notify():
				case <-time.After(time.Millisecond):
				}
				sub.Drain(nil)
				sub.Close()
			}
		}()
	}
	<-done
	wg.Wait()
	if fan.Published() != 5000 {
		t.Fatalf("published %d", fan.Published())
	}
}
