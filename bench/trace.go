package main

// The traced run: spans recorded from the benchmark's own files around each
// call it makes into the farm, the public taps installed, and a CPU profile
// over the timed region split by the package of the leaf function. A nil
// *tracer turns every method into a no-op, which is the untraced run.

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"strings"
	"time"

	"gq/internal/netstack"
)

// span is one timed interval. Self time is End-Start minus the children's.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload,omitempty"`
	Rep      int    `json:"rep"`
}

type tracer struct {
	t0       time.Time
	spans    []span
	workload string
	rep      int

	profBuf  bytes.Buffer
	profiled int              // timed regions profiled since resetProfile
	cpuNS    map[string]int64 // flat CPU ns by layer since resetProfile
	samples  int64
	err      error // first profile error
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cpuNS: map[string]int64{}} }

// begin opens a span under parent (0 = root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNS: int64(time.Since(t.t0)), Workload: t.workload, Rep: t.rep,
	})
	return len(t.spans)
}

func (t *tracer) beginSlice(i, parent int) int {
	if t == nil {
		return 0
	}
	return t.begin(fmt.Sprintf("run.vslice.%d", i), parent)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
}

// selfNS is a span's duration minus the part its children cover.
func (t *tracer) selfNS(id int) int64 {
	s := t.spans[id-1]
	self := s.EndNS - s.StartNS
	for _, c := range t.spans {
		if c.Parent == id {
			self -= c.EndNS - c.StartNS
		}
	}
	return self
}

// --- taps ---

// tapCounts are the counters behind the public taps. In a sharded farm the
// router taps and containment-server hooks fire on their subfarm's
// goroutine, so those counters are kept per subfarm and summed when read.
type tapCounts struct {
	switchBytes     uint64
	frameSizes      [2048]uint64 // frames by length, for the exact median
	upstream        uint64
	routerPkts      []uint64
	csPkts          []uint64
	canaryAddr      netstack.Addr
	upstreamPayload uint64 // payload bytes to or from the canary address on the outside interface
}

// install hooks every public tap into a freshly built farm.
func (t *tracer) install(inst *instance) *tapCounts {
	if t == nil {
		return nil
	}
	f := inst.farm
	tc := &tapCounts{
		routerPkts: make([]uint64, len(f.Subfarms)),
		csPkts:     make([]uint64, len(f.Subfarms)),
	}
	if inst.canary != nil {
		tc.canaryAddr = inst.canary.addr
	}
	// The farm-wide inmate switch and the Internet segment. A sharded
	// farm's per-subfarm switches are private to it; their frames show up
	// in the netsim.* registry counters only.
	sizeTap := func(frame []byte) {
		tc.switchBytes += uint64(len(frame))
		tc.frameSizes[min(len(frame), len(tc.frameSizes)-1)]++
	}
	f.InmateSwitch.AddTap(sizeTap)
	f.InternetSwitch.AddTap(sizeTap)
	f.Gateway.AddUpstreamTap(func(frame []byte) {
		tc.upstream++
		if tc.canaryAddr == 0 {
			return
		}
		// ParseFrame keeps a reference to frame but only Marshal writes
		// through it, and the tap never marshals.
		if p, err := netstack.ParseFrame(frame); err == nil && p.IP != nil &&
			(p.IP.Dst == tc.canaryAddr || p.IP.Src == tc.canaryAddr) && (p.TCP != nil || p.UDP != nil) {
			tc.upstreamPayload += uint64(len(p.Payload))
		}
	})
	for i, sf := range f.Subfarms {
		i := i
		sf.Router.AddTap(func(*netstack.Packet) { tc.routerPkts[i]++ })
		for _, cs := range sf.CSCluster {
			cs.Host.AddRxHook(func(*netstack.Packet) { tc.csPkts[i]++ })
		}
	}
	return tc
}

// addTo writes the tap counters into a per-layer count map.
func (tc *tapCounts) addTo(m map[string]float64) {
	if tc == nil {
		return
	}
	m["netsim.tap_bytes"] = float64(tc.switchBytes)
	m["gateway.upstream_frames"] = float64(tc.upstream)
	for i := range tc.routerPkts {
		m["gateway.router_tap_pkts"] += float64(tc.routerPkts[i])
		m["containment.rx_pkts"] += float64(tc.csPkts[i])
	}
}

// frameMedian is the exact median tapped frame length.
func (tc *tapCounts) frameMedian() float64 {
	var total uint64
	for _, n := range tc.frameSizes {
		total += n
	}
	var cum uint64
	for size, n := range tc.frameSizes {
		cum += n
		if n > 0 && cum*2 >= total {
			return float64(size)
		}
	}
	return 0
}

// --- CPU profile ---

func (t *tracer) startProfile() {
	if t == nil {
		return
	}
	t.profBuf.Reset()
	if err := pprof.StartCPUProfile(&t.profBuf); err != nil && t.err == nil {
		t.err = err
	}
}

// stopProfile ends the profile of one timed region and folds its flat
// samples into the per-layer totals.
func (t *tracer) stopProfile() {
	if t == nil {
		return
	}
	pprof.StopCPUProfile()
	prof, err := parseProfile(t.profBuf.Bytes())
	if err != nil {
		if t.err == nil {
			t.err = err
		}
		return
	}
	t.profiled++
	for _, s := range prof.samples {
		if len(s.stack) == 0 {
			continue
		}
		t.samples += s.count
		if layer := layerOf(s.stack[0]); layer != "" {
			t.cpuNS[layer] += s.cpuNS
		}
		if s.stack[0] == "gq/internal/netstack.Checksum" {
			t.cpuNS["netstack.checksum"] += s.cpuNS
		}
		for _, fn := range s.stack {
			if fn == "runtime.mallocgc" {
				t.cpuNS["runtime.malloc"] += s.cpuNS
				break
			}
		}
	}
}

func (t *tracer) resetProfile() {
	t.profiled, t.samples = 0, 0
	t.cpuNS = map[string]int64{}
}

// cpuMS is a layer's flat CPU time per profiled region, in ms.
func (t *tracer) cpuMS(layer string) float64 {
	if t.profiled == 0 {
		return 0
	}
	return float64(t.cpuNS[layer]) / 1e6 / float64(t.profiled)
}

// layerOf maps a function name to the layer whose cpu_ms it counts toward:
// the gq/internal package, with the event heap's container/heap under sim
// and the protocol engines the sinks drive under sink.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "container/heap.") {
		return "sim"
	}
	rest, ok := strings.CutPrefix(fn, "gq/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	switch pkg {
	case "smtpx", "httpx", "dnsx":
		return "sink"
	}
	return pkg
}
