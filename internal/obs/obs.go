// Package obs is GQ's telemetry substrate: a metrics registry of named
// counters, gauges and fixed-bucket histograms, a structured event journal
// stamped with virtual sim-time, and a bounded per-scope flight recorder.
//
// The package is deliberately dependency-free so every layer of the farm
// (netsim links, the gateway datapath, containment servers, sinks) can
// reach the shared instance hanging off the simulator without import
// cycles. Metrics follow the datapath's hot-path discipline (DESIGN.md
// §Telemetry): instruments are registered once at component construction,
// held as plain struct fields, and updated with single-word atomic adds —
// no map lookups, no allocation, no locking on the packet path. Snapshot()
// may therefore run concurrently with a live simulation.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can move both ways (e.g. live flow-table entries).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// bounds; an implicit overflow bucket catches everything beyond the last
// bound. Values are plain int64s — callers pick the unit (the farm uses
// microseconds for latencies) and encode it in the metric name.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Uint64 // len(bounds)+1, last is overflow
	count   atomic.Uint64
	sum     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Registry holds the farm's named instruments. Registration is idempotent:
// asking for an existing name returns the same instrument, so components
// constructed several times per simulation (ports, cluster members) share
// one series. Requesting a name already registered as a different kind
// panics — that is a wiring bug, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

func (r *Registry) checkFree(name, want string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a counter, wanted %s", name, want))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a gauge, wanted %s", name, want))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a histogram, wanted %s", name, want))
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given inclusive upper bucket bounds (ascending) on first use. Bounds
// of an existing histogram must match.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		if len(h.bounds) != len(bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
		for i := range bounds {
			if h.bounds[i] != bounds[i] {
				panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
			}
		}
		return h
	}
	r.checkFree(name, "histogram")
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Bounds  []int64  `json:"bounds"`
	Buckets []uint64 `json:"buckets"` // len(Bounds)+1, last is overflow
}

// Quantile estimates the q-quantile (0 < q <= 1) of the recorded
// distribution by locating the bucket holding the q*Count-th observation
// and interpolating linearly inside it. The estimate is in the histogram's
// native unit. Observations in the overflow bucket cannot be interpolated;
// a quantile landing there reports the last finite bound (a lower bound on
// the true value). An empty histogram reports 0.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := uint64(0)
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) < rank {
			cum += n
			continue
		}
		if i >= len(h.Bounds) {
			return float64(h.Bounds[len(h.Bounds)-1])
		}
		lo := 0.0
		if i > 0 {
			lo = float64(h.Bounds[i-1])
		}
		hi := float64(h.Bounds[i])
		return lo + (hi-lo)*((rank-float64(cum))/float64(n))
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}

// Snapshot is a point-in-time copy of every registered metric, stamped with
// the virtual sim-time it was taken at.
type Snapshot struct {
	SimTimeNS  time.Duration                `json:"sim_time_ns"`
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry, safe to call concurrently with updates.
func (r *Registry) Snapshot(at time.Duration) *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		SimTimeNS: at,
		Counters:  make(map[string]uint64, len(r.counters)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{
				Count:   h.count.Load(),
				Sum:     h.sum.Load(),
				Bounds:  h.bounds,
				Buckets: make([]uint64, len(h.buckets)),
			}
			for i := range h.buckets {
				hs.Buckets[i] = h.buckets[i].Load()
			}
			s.Histograms[name] = hs
		}
	}
	return s
}

// Counter returns a counter's snapshotted value (0 when absent).
func (s *Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns a gauge's snapshotted value (0 when absent).
func (s *Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// WriteJSON emits the snapshot as indented JSON (map keys marshal sorted,
// so output is deterministic).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteText renders a human-readable, sorted metric table.
func (s *Snapshot) WriteText(w io.Writer) error {
	type row struct{ name, value string }
	rows := make([]row, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for name, v := range s.Counters {
		rows = append(rows, row{name, fmt.Sprintf("%d", v)})
	}
	for name, v := range s.Gauges {
		rows = append(rows, row{name, fmt.Sprintf("%d", v)})
	}
	for name, h := range s.Histograms {
		var b strings.Builder
		fmt.Fprintf(&b, "count=%d sum=%d", h.Count, h.Sum)
		if h.Count > 0 {
			fmt.Fprintf(&b, " p50=%.0f p95=%.0f p99=%.0f",
				h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
		}
		for i, n := range h.Buckets {
			if n == 0 {
				continue
			}
			if i < len(h.Bounds) {
				fmt.Fprintf(&b, " le%d=%d", h.Bounds[i], n)
			} else {
				fmt.Fprintf(&b, " inf=%d", n)
			}
		}
		rows = append(rows, row{name, b.String()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	width := 0
	for _, r := range rows {
		if len(r.name) > width {
			width = len(r.name)
		}
	}
	if _, err := fmt.Fprintf(w, "Telemetry snapshot (sim time %v)\n", s.SimTimeNS); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "  %-*s  %s\n", width, r.name, r.value); err != nil {
			return err
		}
	}
	return nil
}

// Obs bundles a registry and a journal sharing one virtual clock. One Obs
// hangs off every sim.Simulator. In a sharded farm the registry and
// journal objects are shared across all domains (counters are single-word
// atomics; journal scopes are domain-owned), while each domain's Obs view
// carries its own clock and emission stream.
type Obs struct {
	Reg     *Registry
	Journal *Journal

	clock  func() time.Duration
	stream *Stream
}

// New creates an Obs whose instruments and events are stamped by clock
// (the simulator's virtual Now). A nil clock stamps everything zero.
func New(clock func() time.Duration) *Obs {
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	j := NewJournal(clock)
	return &Obs{Reg: NewRegistry(), Journal: j, clock: clock, stream: j.streams[0]}
}

// ShardView derives a domain-local view of this Obs: the registry and
// journal are shared, but events emitted through the view's scopes are
// stamped with the domain's clock and tagged with a fresh stream (shard id,
// per-stream sequence) so the parallel merge can reproduce the serial
// order.
func (o *Obs) ShardView(clock func() time.Duration) *Obs {
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	return &Obs{Reg: o.Reg, Journal: o.Journal, clock: clock, stream: o.Journal.NewStream(clock)}
}

// Scope returns the named journal scope bound to this view's emission
// stream (the root stream for a non-sharded Obs). Idempotent per view: two
// domains asking for one name each get their own ring under it. Use this,
// not Journal.Scope, when the scope belongs to a specific simulation domain.
func (o *Obs) Scope(name string, ring int) *Scope {
	return o.stream.Scope(name, ring)
}

// Snapshot captures all metrics at the current virtual time. Safe to call
// from a goroutine other than the simulator's.
func (o *Obs) Snapshot() *Snapshot { return o.Reg.Snapshot(o.clock()) }
