package main

// The rep runner: build a farm, boot it, time Farm.Run over the workload's
// fixed virtual work, drain, check outputs. Everything host-side is sampled
// around the timed region only; everything simulated is read from public
// counters at the region's edges.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"gq/internal/sim"
)

// repResult is everything one rep measured.
type repResult struct {
	// Host-side, timed region only.
	WallS, CPUS float64
	Runtime     runtimeDelta
	// Host-side, outside the region.
	BuildS, BootS float64
	// Slowness is how much slower than nominal the reference kernel ran
	// around this rep; host times are divided by it when reported.
	Slowness float64

	// Simulated.
	VirtualS  float64            // virtual seconds the region covered
	Delivered uint64             // payload bytes delivered in the region
	Counts    map[string]float64 // exact per-layer counts over the region
	Digest    string             // SHA-256 of the NDJSON journal, whole rep
	Escaped   uint64

	Attempted, Failed uint64
	Notes             []string

	taps *tapCounts // the traced rep's tap counters, nil when untraced
}

// hashSink is the journal's writer: it counts, hashes when h is set, and
// stores nothing.
type hashSink struct {
	h hash.Hash
	n uint64
}

func (w *hashSink) Write(p []byte) (int, error) {
	w.n += uint64(len(p))
	if w.h == nil {
		return len(p), nil
	}
	return w.h.Write(p)
}

// runRep executes one rep of a workload. tr is nil for an untraced rep.
func runRep(name string, seed int64, scale float64, tr *tracer) (*repResult, error) {
	wspan := tr.begin("workload", 0)
	defer tr.end(wspan)
	refIters := scaled(refIterations, min(scale, 1))
	sp := tr.begin("ref", wspan)
	refBefore := refKernel(refIters)
	tr.end(sp)

	// --- setup.build ---
	sp = tr.begin("setup.build", wspan)
	t0 := time.Now()
	inst, err := builders[name](seed, scale)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", name, err)
	}
	f := inst.farm
	journal := &hashSink{h: sha256.New()}
	sink := f.Sim.Obs().Journal.AttachNDJSON(journal)
	taps := tr.install(inst)
	buildS := time.Since(t0).Seconds()
	tr.end(sp)

	// --- setup.boot ---
	sp = tr.begin("setup.boot", wspan)
	t0 = time.Now()
	f.Run(inst.boot)
	bootS := time.Since(t0).Seconds()
	tr.end(sp)

	// --- run: the timed region ---
	res := &repResult{BuildS: buildS, BootS: bootS, taps: taps}
	before := collectCounts(inst, journal, taps)
	delivered0 := inst.delivered()
	v0 := f.Sim.Now()
	tr.startProfile()
	rsp := tr.begin("run", wspan)
	var peak uint64
	rt0 := readRuntime()
	cpu0 := processCPU()
	t0 = time.Now()
	for i := 0; i < inst.slices; i++ {
		ssp := tr.beginSlice(i, rsp)
		f.Run(inst.slice)
		tr.end(ssp)
		if h := heapObjects(); h > peak {
			peak = h
		}
		if inst.done != nil && inst.done() {
			break
		}
	}
	res.WallS = time.Since(t0).Seconds()
	res.CPUS = processCPU() - cpu0
	res.Runtime = readRuntime().since(rt0)
	res.Runtime.HeapPeakBytes = peak
	tr.end(rsp)
	tr.stopProfile()
	vEnd := f.Sim.Now()
	if inst.finishedAt != nil && inst.done() {
		vEnd = inst.finishedAt()
	}
	res.VirtualS = (vEnd - v0).Seconds()
	res.Delivered = inst.delivered() - delivered0
	after := collectCounts(inst, journal, taps)
	res.Counts = countDelta(before, after)

	// --- verify ---
	sp = tr.begin("verify", wspan)
	if inst.stop != nil {
		inst.stop()
	}
	f.Run(inst.drain)
	c := &checker{}
	if inst.done != nil {
		c.require(inst.done(), "work not complete after %d slices", inst.slices)
	}
	inst.check(c)
	var shed, failclosed uint64
	for _, sf := range f.Subfarms {
		shed += sf.Router.FlowsShed.Value()
		failclosed += sf.Router.FlowsFailClosed.Value()
	}
	c.require(shed == 0, "gateway shed %d flows", shed)
	c.require(failclosed == 0, "gateway failed %d flows closed", failclosed)
	if cn := inst.canary; cn != nil {
		c.require(cn.conns == 0 && cn.bytes == 0, "canary saw %d conns, %d bytes: containment breached", cn.conns, cn.bytes)
		res.Escaped = cn.bytes
	}
	if taps != nil && inst.canary != nil {
		c.require(taps.upstreamPayload == 0, "upstream tap saw %d inmate payload bytes under default-deny", taps.upstreamPayload)
		res.Escaped += taps.upstreamPayload
	}
	if err := sink.Flush(); err != nil {
		return nil, fmt.Errorf("%s: journal flush: %w", name, err)
	}
	res.Digest = hex.EncodeToString(journal.h.Sum(nil))
	c.require(res.Counts["gateway.verdict_vus_p50"] > 0, "no verdict was applied before the timed region ended")
	res.Attempted, res.Failed, res.Notes = c.attempted, c.failed, c.notes
	tr.end(sp)
	sp = tr.begin("ref", wspan)
	res.Slowness = slowness(refBefore, refKernel(refIters))
	tr.end(sp)
	return res, nil
}

// verdictQuantile is the exact q-quantile (nearest rank) of the virtual
// first-SYN-to-verdict latency over every flow the farm has adjudicated so
// far, in virtual microseconds, read from the routers' flow records.
func verdictQuantile(inst *instance, q float64) float64 {
	var us []float64
	for _, sf := range inst.farm.Subfarms {
		for _, rec := range sf.Router.Records() {
			if rec.Verdict != 0 && !rec.FailClosed {
				us = append(us, float64(rec.VerdictAt-rec.Start)/float64(time.Microsecond))
			}
		}
	}
	if len(us) == 0 {
		return 0
	}
	sort.Float64s(us)
	return us[min(int(math.Ceil(q*float64(len(us))))-1, len(us)-1)]
}

// simulators lists every simulation domain of the instance's farm once.
func simulators(inst *instance) []*sim.Simulator {
	seen := map[*sim.Simulator]bool{}
	var out []*sim.Simulator
	add := func(s *sim.Simulator) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	add(inst.farm.Sim)
	for _, sf := range inst.farm.Subfarms {
		add(sf.Sim)
	}
	for _, h := range inst.extHosts {
		add(h.Sim())
	}
	return out
}

// gaugeCounts are read at the region's end instead of differenced.
var gaugeCounts = map[string]bool{
	"gateway.flows_active_end": true,
	"gateway.verdict_vus_p50":  true,
	"gateway.verdict_vus_p99":  true,
}

// collectCounts reads every exact per-layer count. Call only while the farm
// is quiesced (between Farm.Run calls).
func collectCounts(inst *instance, journal *hashSink, taps *tapCounts) map[string]float64 {
	f := inst.farm
	m := map[string]float64{}
	for _, s := range simulators(inst) {
		m["sim.events"] += float64(s.Fired)
	}
	if f.Coord != nil {
		rounds, windows := f.Coord.Stats()
		m["sim.rounds"], m["sim.domain_windows"] = float64(rounds), float64(windows)
	}
	snap := f.Sim.Obs().Snapshot()
	for name, v := range snap.Counters {
		switch {
		case strings.HasPrefix(name, "netsim.switch."):
			switch {
			case strings.HasSuffix(name, ".forwarded"):
				m["netsim.frames_forwarded"] += float64(v)
			case strings.HasSuffix(name, ".flooded"):
				m["netsim.frames_flooded"] += float64(v)
			case strings.HasSuffix(name, ".drops"):
				m["netsim.drops"] += float64(v)
			}
		case strings.HasPrefix(name, "netsim.port_") && strings.HasSuffix(name, "_drops"):
			m["netsim.drops"] += float64(v)
		case strings.HasPrefix(name, "policy.") && strings.HasSuffix(name, ".decisions"):
			m["policy.decisions"] += float64(v)
		}
	}
	m["gateway.trunk_rx_frames"] = float64(f.Gateway.TrunkRx.Value())
	for _, sf := range f.Subfarms {
		r := sf.Router
		m["gateway.flows_created"] += float64(r.FlowsCreated.Value())
		m["gateway.verdicts_applied"] += float64(r.VerdictsApplied.Value())
		m["gateway.flows_active_end"] += float64(r.FlowsActive.Value())
		m["gateway.flows_shed"] += float64(r.FlowsShed.Value())
		m["gateway.flows_failclosed"] += float64(r.FlowsFailClosed.Value())
		m["gateway.sweep_reaped"] += float64(r.SweepReaped.Value())
		m["gateway.retransmits"] += float64(r.Retransmits.Value())
		m["gateway.safety_drops"] += float64(r.SafetyDrops.Value())
		m["gateway.limit_drops"] += float64(r.LimitDrops.Value())
		m["nat.exhausted"] += float64(r.NATExhausted.Value())
		for _, cs := range sf.CSCluster {
			m["containment.flows_seen"] += float64(cs.FlowsSeen)
		}
		m["sink.tcp_conns"] += float64(sf.CatchAll.TCPConns)
		m["sink.smtp_sessions"] += float64(sf.SMTPSink.Sessions + sf.BannerSink.Sessions)
		m["sink.smtp_data_transfers"] += float64(sf.SMTPSink.DataTransfers + sf.BannerSink.DataTransfers)
	}
	for _, meter := range inst.meters {
		m["sink.rx_pkts"] += float64(meter.pkts)
	}
	m["gateway.verdict_vus_p50"] = verdictQuantile(inst, 0.50)
	m["gateway.verdict_vus_p99"] = verdictQuantile(inst, 0.99)
	m["obs.journal_events"] = float64(f.Sim.Obs().Journal.Emitted)
	m["obs.journal_bytes"] = float64(journal.n)
	taps.addTo(m)
	return m
}

func countDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		if gaugeCounts[k] {
			d[k] = v
		} else {
			d[k] = v - before[k]
		}
	}
	return d
}

// --- host-side sampling ---

// processCPU is user+system CPU seconds of this process so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mAssistCPU  = "/cpu/classes/gc/mark/assist:cpu-seconds"
	mPauses     = "/sched/pauses/total/gc:seconds"
	mHeapObjs   = "/memory/classes/heap/objects:bytes"
)

// runtimeSample is a reading of the runtime/metrics the benchmark tracks.
type runtimeSample struct {
	allocBytes, mallocs, gcCycles uint64
	gcCPU, assistCPU              float64
	pauses                        *metrics.Float64Histogram
}

// runtimeDelta is the change in those metrics across the timed region.
type runtimeDelta struct {
	AllocBytes, Mallocs, GCCycles uint64
	GCCPUS, AssistCPUS            float64
	PauseMaxS                     float64
	HeapPeakBytes                 uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mAssistCPU}, {Name: mPauses}}
	metrics.Read(s)
	out := runtimeSample{
		allocBytes: s[0].Value.Uint64(), mallocs: s[1].Value.Uint64(), gcCycles: s[2].Value.Uint64(),
		gcCPU: s[3].Value.Float64(), assistCPU: s[4].Value.Float64(),
	}
	if s[5].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[5].Value.Float64Histogram()
		out.pauses = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return out
}

func (s runtimeSample) since(start runtimeSample) runtimeDelta {
	d := runtimeDelta{
		AllocBytes: s.allocBytes - start.allocBytes, Mallocs: s.mallocs - start.mallocs,
		GCCycles: s.gcCycles - start.gcCycles,
		GCCPUS:   s.gcCPU - start.gcCPU, AssistCPUS: s.assistCPU - start.assistCPU,
	}
	// The longest pause in the region: the upper edge of the highest
	// histogram bucket that gained a sample.
	if s.pauses != nil && start.pauses != nil {
		for i := len(s.pauses.Counts) - 1; i >= 0; i-- {
			if s.pauses.Counts[i] > start.pauses.Counts[i] {
				if edge := s.pauses.Buckets[i+1]; !math.IsInf(edge, 1) {
					d.PauseMaxS = edge
				} else {
					d.PauseMaxS = s.pauses.Buckets[i]
				}
				break
			}
		}
	}
	return d
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: mHeapObjs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// --- statistics ---

// summarize reports samples as their median, with min, max, n and the
// samples themselves.
func summarize(samples []float64, unit string) metricValue {
	if len(samples) == 0 {
		return metricValue{Unit: unit}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return metricValue{Value: median(s), Unit: unit, Min: s[0], Max: s[len(s)-1], N: len(s), Samples: samples}
}

// median of an ascending slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quiesce settles the heap between reps so one rep's garbage is not
// collected on the next one's clock.
func quiesce() { runtime.GC() }
