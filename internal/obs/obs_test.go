package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x.y")
	b := r.Counter("x.y")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	b.Add(2)
	if a.Value() != 3 {
		t.Fatalf("shared counter value %d", a.Value())
	}
	g := r.Gauge("x.g")
	if r.Gauge("x.g") != g {
		t.Fatal("same name returned distinct gauges")
	}
	h := r.Histogram("x.h", 10, 20)
	if r.Histogram("x.h", 10, 20) != h {
		t.Fatal("same name returned distinct histograms")
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("cross-kind registration did not panic")
		}
	}()
	r.Gauge("dual")
}

func TestHistogramBoundMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", 1, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("bound mismatch did not panic")
		}
	}()
	r.Histogram("h", 1, 2)
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 10, 100)
	for _, v := range []int64{5, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	snap := r.Snapshot(0).Histograms["lat"]
	if snap.Count != 6 {
		t.Fatalf("count %d", snap.Count)
	}
	// Inclusive upper bounds: 5,10 <= 10; 11,100 <= 100; 101,5000 overflow.
	want := []uint64{2, 2, 2}
	for i, n := range want {
		if snap.Buckets[i] != n {
			t.Fatalf("bucket %d = %d want %d", i, snap.Buckets[i], n)
		}
	}
	if snap.Sum != 5+10+11+100+101+5000 {
		t.Fatalf("sum %d", snap.Sum)
	}
}

func TestSnapshotAccessorsAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(-4)
	snap := r.Snapshot(3 * time.Second)
	if snap.Counter("c") != 7 || snap.Counter("absent") != 0 {
		t.Fatal("counter accessor")
	}
	if snap.Gauge("g") != -4 {
		t.Fatal("gauge accessor")
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		SimTimeNS int64             `json:"sim_time_ns"`
		Counters  map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.SimTimeNS != int64(3*time.Second) || decoded.Counters["c"] != 7 {
		t.Fatalf("decoded %+v", decoded)
	}
	var text strings.Builder
	snap.WriteText(&text)
	if !strings.Contains(text.String(), "c") || !strings.Contains(text.String(), "7") {
		t.Fatalf("text table: %s", text.String())
	}
}

func TestScopeRingWrapAndDump(t *testing.T) {
	clock := time.Duration(0)
	j := NewJournal(func() time.Duration { return clock })
	sc := j.Scope("sf", 4)
	for i := 1; i <= 6; i++ {
		clock = time.Duration(i) * time.Second
		sc.Emit(Event{Type: EvFlowCreated, N: uint64(i)})
	}
	if sc.Len() != 4 {
		t.Fatalf("ring length %d", sc.Len())
	}
	d := sc.Dump("test")
	if len(d.Events) != 4 {
		t.Fatalf("dump %d events", len(d.Events))
	}
	// Oldest first: events 3,4,5,6 survived the wrap.
	for i, e := range d.Events {
		if e.N != uint64(i+3) {
			t.Fatalf("event %d has N=%d", i, e.N)
		}
		if e.Scope != "sf" {
			t.Fatalf("scope not stamped: %+v", e)
		}
	}
	if got := j.Dumps(); len(got) != 1 || got[0].Reason != "test" {
		t.Fatalf("retained dumps %+v", got)
	}
}

// TestDumpRetentionBounded: a dump storm keeps the newest DefaultMaxDumps
// dumps, and the older ones are evicted and counted.
func TestDumpRetentionBounded(t *testing.T) {
	j := NewJournal(nil)
	sc := j.Scope("s", 2)
	sc.Emit(Event{Type: EvFlowCreated})
	for i := 0; i < DefaultMaxDumps+10; i++ {
		sc.Dump(fmt.Sprint(i))
	}
	got := j.Dumps()
	if len(got) != DefaultMaxDumps {
		t.Fatalf("retained %d dumps, cap %d", len(got), DefaultMaxDumps)
	}
	for i, d := range got {
		if want := fmt.Sprint(10 + i); d.Reason != want {
			t.Fatalf("dump %d reason %q, want %q (newest-N retention)", i, d.Reason, want)
		}
	}
	if n := j.EvictedDumps(); n != 10 {
		t.Fatalf("evicted %d dumps, want 10", n)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := HistogramSnapshot{
		Count:   100,
		Bounds:  []int64{10, 100, 1000},
		Buckets: []uint64{50, 30, 20, 0},
	}
	// p50: the 50th observation closes the first bucket → 10.
	if got := h.Quantile(0.50); got != 10 {
		t.Fatalf("p50 = %v, want 10", got)
	}
	// p80: rank 80 closes the second bucket → 100.
	if got := h.Quantile(0.80); got != 100 {
		t.Fatalf("p80 = %v, want 100", got)
	}
	// p65: rank 65 is halfway through the 30-wide second bucket (10..100).
	if got := h.Quantile(0.65); got != 55 {
		t.Fatalf("p65 = %v, want 55", got)
	}
	// p99: rank 99 interpolates inside the third bucket (100..1000).
	if got := h.Quantile(0.99); got != 100+900*0.95 {
		t.Fatalf("p99 = %v", got)
	}
	// Overflow-bucket quantile clamps to the last finite bound.
	over := HistogramSnapshot{Count: 10, Bounds: []int64{10}, Buckets: []uint64{2, 8}}
	if got := over.Quantile(0.99); got != 10 {
		t.Fatalf("overflow p99 = %v, want 10", got)
	}
	// Empty histogram.
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
}

func TestWriteTextShowsQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 10, 100)
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	var b strings.Builder
	if err := r.Snapshot(0).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "p50=") || !strings.Contains(b.String(), "p99=") {
		t.Fatalf("telemetry table lacks quantiles: %s", b.String())
	}
}

func TestNDJSONSink(t *testing.T) {
	clock := 1500 * time.Millisecond
	j := NewJournal(func() time.Duration { return clock })
	j.Epoch = time.Date(2011, 11, 2, 0, 0, 0, 0, time.UTC)
	j.SetVerdictNamer(func(v uint32) string { return "VERDICT" })
	var buf bytes.Buffer
	sink := j.AttachNDJSON(&buf)
	sc := j.Scope("sf", 4)
	sc.Emit(Event{
		Type: EvFlowVerdict, VLAN: 16, Proto: 6,
		SrcIP: 0x0a000010, SrcPort: 1234, DstIP: 0x08080808, DstPort: 25,
		Verdict: 4, Detail: "Rustock",
	})
	sc.Emit(Event{Type: EvSweepReaped, N: 3})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines %d: %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line not valid JSON: %v\n%s", err, lines[0])
	}
	if rec["type"] != "flow.verdict" || rec["vlan"] != float64(16) ||
		rec["proto"] != "tcp" || rec["src"] != "10.0.0.16:1234" ||
		rec["dst"] != "8.8.8.8:25" || rec["verdict"] != "VERDICT" ||
		rec["detail"] != "Rustock" {
		t.Fatalf("decoded %+v", rec)
	}
	if rec["wall"] != "2011-11-02T00:00:01.500000Z" {
		t.Fatalf("wall %v", rec["wall"])
	}
	var reap map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &reap); err != nil {
		t.Fatal(err)
	}
	if reap["n"] != float64(3) || reap["type"] != "sweep.reaped" {
		t.Fatalf("decoded %+v", reap)
	}
}

func TestWriteDump(t *testing.T) {
	j := NewJournal(nil)
	sc := j.Scope("sf", 4)
	sc.Emit(Event{Type: EvTriggerFired, VLAN: 17, Detail: "revert"})
	d := sc.Dump("trigger fired")
	var buf bytes.Buffer
	if err := j.WriteDump(&buf, d); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump lines %d", len(lines))
	}
	var head map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &head); err != nil {
		t.Fatal(err)
	}
	if head["flight_recorder"] != "sf" || head["reason"] != "trigger fired" || head["events"] != float64(1) {
		t.Fatalf("header %+v", head)
	}
}

// TestConcurrentCountersAndSnapshot exercises the advertised concurrency
// contract under -race: many writers bump metrics while another goroutine
// snapshots.
func TestConcurrentCountersAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", 10, 100)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 200))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			snap := r.Snapshot(0)
			if snap.Counter("c") > 4000 {
				t.Error("counter overshot")
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 4000 {
		t.Fatalf("final counter %d", c.Value())
	}
}

// TestScopeSameNameAcrossStreams pins the scope-per-domain rule: two
// streams asking for one scope name get one ring each, so their domains
// can emit concurrently (a shared ring is a data race — run with -race),
// while the journal and DumpScope present the name as one record in
// (T, shard, seq) order.
func TestScopeSameNameAcrossStreams(t *testing.T) {
	o := New(nil)
	o.Journal.SetParallel()
	var out bytes.Buffer
	sink := o.Journal.AttachNDJSON(&out)

	const perStream = 100
	views := []*Obs{o, o.ShardView(nil), o.ShardView(nil)}
	// Request in reverse shard order: ring order must not depend on who
	// asked first.
	scopes := make([]*Scope, len(views))
	for i := len(views) - 1; i >= 0; i-- {
		scopes[i] = views[i].Scope("supervisor.tree", 0)
	}
	if scopes[0] == scopes[1] || scopes[1] == scopes[2] {
		t.Fatal("two streams were handed the same *Scope")
	}
	if again := views[1].Scope("supervisor.tree", 0); again != scopes[1] {
		t.Fatal("Scope is not idempotent per (name, stream)")
	}

	var wg sync.WaitGroup
	for shard, sc := range scopes {
		wg.Add(1)
		go func(shard int, sc *Scope) {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				sc.Emit(Event{Type: "supervisor.lockdown", VLAN: uint16(shard + 1), N: uint64(i + 1)})
			}
		}(shard, sc)
	}
	wg.Wait()
	o.Journal.FlushOrdered()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	// Every event carries T=0, so the merge key reduces to (shard, seq).
	d := o.Journal.DumpScope("supervisor.tree", "test")
	if len(d.Events) != len(scopes)*perStream {
		t.Fatalf("merged dump holds %d events, want %d", len(d.Events), len(scopes)*perStream)
	}
	for i, e := range d.Events {
		if want := (Event{Type: "supervisor.lockdown", Scope: "supervisor.tree",
			VLAN: uint16(i/perStream + 1), N: uint64(i%perStream + 1)}); e != want {
			t.Fatalf("dump event %d = %+v, want %+v", i, e, want)
		}
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(d.Events) {
		t.Fatalf("journal holds %d lines, want %d", len(lines), len(d.Events))
	}
	for i, line := range lines {
		if want := fmt.Sprintf(`"vlan":%d,"n":%d}`, i/perStream+1, i%perStream+1); !strings.HasSuffix(line, want) {
			t.Fatalf("journal line %d = %s, want suffix %s", i, line, want)
		}
	}
	if all := o.Journal.DumpAll("test"); len(all) != 1 {
		t.Fatalf("DumpAll returned %d dumps for one scope name", len(all))
	}
}
