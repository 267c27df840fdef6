// Command bench is the GQ benchmark: five farm workloads measured end to
// end (host cost and simulated service), a per-layer ladder of exact counts,
// profile shares and isolated micro-runs, and the compare tool later PRs are
// judged with. See README.md in this directory.
//
//	go run ./bench                                  # every workload, untraced
//	go run ./bench -workload flow_churn -seed 7     # one workload, another seed
//	go run ./bench -trace 1 -out out/               # traced run + rungs, writes out/trace.json
//	go run ./bench -rungs                           # the rung ladder alone
//	go run ./bench -list                            # every metric with unit, direction, bound
//	go run ./bench -json a.json ; go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// minReps is the fewest measured reps a time-boxed run accepts.
const minReps = 3

// options is the parsed command line.
type options struct {
	seed      int64
	workloads []string
	seconds   float64
	reps      int
	trace     bool
	outDir    string
	jsonPath  string
	scale     float64 // 1 on the command line; the smoke test shrinks it
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed for the farm and for the benchmark-generated inputs")
	workload := fs.String("workload", "", "comma-separated workloads to run (default: all)")
	seconds := fs.Float64("seconds", 10, "host seconds to measure each workload for")
	reps := fs.Int("reps", 0, "measured reps per workload (0: as many as fit in -seconds, at least 3)")
	trace := fs.Int("trace", 0, "1: traced run (taps, spans, CPU profile, rungs) reporting the per-layer metrics")
	outDir := fs.String("out", "", "with -trace 1: directory to write trace.json into")
	rungsOnly := fs.Bool("rungs", false, "run only the rung ladder")
	list := fs.Bool("list", false, "print every metric with unit, direction and bound, and exit")
	jsonPath := fs.String("json", "", "append this invocation's results to a JSON file")
	compare := fs.Bool("compare", false, "compare two -json files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		printCatalogue(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	opt := options{
		seed: *seed, seconds: *seconds, reps: *reps, trace: *trace != 0,
		outDir: *outDir, jsonPath: *jsonPath, scale: 1,
	}
	if *rungsOnly {
		rungs, err := runRungs(newTracer(), 1)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		values := map[string]metricValue{}
		for _, d := range perLayerDefs {
			if v, ok := rungs[d.Name]; ok {
				values[d.Name] = metricValue{Value: v, Unit: d.Unit}
			}
		}
		printMetrics(stdout, "rungs", perLayerDefs, values)
		return 0
	}
	// Selected workloads run in catalogue order whatever order was asked.
	asked := map[string]bool{}
	for _, name := range strings.Split(*workload, ",") {
		if name != "" && builders[name] == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", name, workloadNames())
			return 2
		}
		asked[name] = true
	}
	for _, w := range workloadDefs {
		if *workload == "" || asked[w.Name] {
			opt.workloads = append(opt.workloads, w.Name)
		}
	}
	file, err := execute(opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if opt.jsonPath != "" {
		if err := appendResults(opt.jsonPath, file); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	for _, r := range file.Runs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// --- results ---

// metricValue is one reported number. The driver reads value and unit; the
// spread fields are for -compare and for people.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min,omitempty"`
	Max     float64   `json:"max,omitempty"`
	N       int       `json:"n,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// runRecord is one workload's run in one invocation.
type runRecord struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
	// SimDigest is the SHA-256 of the NDJSON journal; equal across reps or
	// the run is incorrect. Counts are the exact per-layer counts of the
	// timed region, equally repeatable.
	SimDigest string                 `json:"sim_digest"`
	Counts    map[string]float64     `json:"counts"`
	WarmupS   float64                `json:"warmup_s"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	// HostRaw are the host times before normalisation by the reference
	// kernel, and the slowness factor itself.
	HostRaw  map[string]metricValue `json:"host_raw,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
}

// resultFile is what -json writes: the environment and every run appended
// to the file so far.
type resultFile struct {
	Env  envInfo     `json:"env"`
	Runs []runRecord `json:"runs"`
}

type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func environment() envInfo {
	return envInfo{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: cpuModel(), Commit: gitCommit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD by reading .git directly; the driver's checkout
// has no .git, and then the commit is simply unknown.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// appendResults merges this invocation's runs into the file at path.
func appendResults(path string, file *resultFile) error {
	merged := *file
	if b, err := os.ReadFile(path); err == nil {
		var prior resultFile
		if err := json.Unmarshal(b, &prior); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		merged.Runs = append(prior.Runs, file.Runs...)
	} else if !os.IsNotExist(err) {
		return err
	}
	b, err := json.MarshalIndent(&merged, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// --- the measuring loops ---

// execute runs every selected workload and prints, per workload, a table
// and then the driver's result line.
func execute(opt options, stdout io.Writer) (*resultFile, error) {
	file := &resultFile{Env: environment()}
	e := file.Env
	fmt.Fprintf(stdout, "# gq bench: %s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s seed=%d\n",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.Commit, opt.seed)
	var tr *tracer
	var rungs map[string]float64
	if opt.trace {
		tr = newTracer()
		var err error
		if rungs, err = runRungs(tr, opt.scale); err != nil {
			return nil, err
		}
	}
	for _, name := range opt.workloads {
		var rec *runRecord
		var err error
		if opt.trace {
			rec, err = measureTraced(name, opt, tr, rungs)
		} else {
			rec, err = measure(name, opt)
		}
		if err != nil {
			return nil, err
		}
		file.Runs = append(file.Runs, *rec)
		defs, values := endToEndDefs, rec.EndToEnd
		if opt.trace {
			defs, values = perLayerDefs, rec.PerLayer
		}
		if err := printRun(stdout, rec, defs, values); err != nil {
			return nil, err
		}
	}
	if tr != nil && opt.outDir != "" {
		if err := writeTrace(opt.outDir, tr, file); err != nil {
			return nil, err
		}
	}
	return file, nil
}

// budget decides whether another rep fits: a fixed count when -reps is set,
// else as many as the time box holds, never fewer than minReps.
type budget struct {
	reps    int
	seconds float64
	start   time.Time
	done    int
}

func (b *budget) more() bool {
	if b.reps > 0 {
		return b.done < b.reps
	}
	return b.done < minReps || time.Since(b.start).Seconds() < b.seconds
}

// repSet folds reps into a run record, enforcing that the simulation
// repeated exactly.
type repSet struct {
	rec  *runRecord
	reps []*repResult
}

func newRepSet(name string, opt options) *repSet {
	return &repSet{rec: &runRecord{Workload: name, Seed: opt.seed, Traced: opt.trace, Correct: true}}
}

func (s *repSet) add(r *repResult) {
	rec := s.rec
	rec.Attempted += r.Attempted
	rec.Failed += r.Failed
	rec.Notes = append(rec.Notes, r.Notes...)
	if len(s.reps) == 0 {
		rec.SimDigest, rec.Counts = r.Digest, r.Counts
	} else {
		if r.Digest != rec.SimDigest {
			rec.Failed++
			rec.Notes = append(rec.Notes, fmt.Sprintf("rep %d: sim_digest %s differs from rep 0's %s", len(s.reps), r.Digest, rec.SimDigest))
		}
		for k, v := range r.Counts {
			if rec.Counts[k] != v {
				rec.Failed++
				rec.Notes = append(rec.Notes, fmt.Sprintf("rep %d: count %s = %v, rep 0 had %v", len(s.reps), k, v, rec.Counts[k]))
			}
		}
	}
	rec.Correct = rec.Failed == 0
	s.reps = append(s.reps, r)
}

// metric summarises f over the set's reps.
func (s *repSet) metric(unit string, f func(*repResult) float64) metricValue {
	vals := make([]float64, len(s.reps))
	for i, r := range s.reps {
		vals[i] = f(r)
	}
	return summarize(vals, unit)
}

// warmUp runs the discarded rep that pages the program in and grows the
// heap, at a quarter of the work, and returns the host seconds it took.
func warmUp(name string, opt options) (float64, error) {
	t0 := time.Now()
	if _, err := runRep(name, opt.seed, opt.scale/4, nil); err != nil {
		return 0, err
	}
	quiesce()
	return time.Since(t0).Seconds(), nil
}

// measure is the untraced run: one discarded warm-up rep, then measured reps
// for the time box. It reports the end-to-end metrics.
func measure(name string, opt options) (*runRecord, error) {
	warmup, err := warmUp(name, opt)
	if err != nil {
		return nil, err
	}
	set := newRepSet(name, opt)
	set.rec.WarmupS = warmup
	for b := (budget{reps: opt.reps, seconds: opt.seconds, start: time.Now()}); b.more(); b.done++ {
		r, err := runRep(name, opt.seed, opt.scale, nil)
		if err != nil {
			return nil, err
		}
		set.add(r)
		quiesce()
	}
	set.rec.EndToEnd = endToEnd(set)
	set.rec.HostRaw = map[string]metricValue{
		"wall_raw_s":  set.metric("s", func(r *repResult) float64 { return r.WallS }),
		"cpu_raw_s":   set.metric("s", func(r *repResult) float64 { return r.CPUS }),
		"setup_raw_s": set.metric("s", func(r *repResult) float64 { return r.BuildS + r.BootS }),
		"slowness":    set.metric("x", func(r *repResult) float64 { return r.Slowness }),
	}
	return set.rec, nil
}

// endToEnd computes the end-to-end metrics from untraced reps.
func endToEnd(s *repSet) map[string]metricValue {
	last := s.reps[len(s.reps)-1]
	return map[string]metricValue{
		// Host times are normalised rep by rep (see refkernel.go).
		"wall_s":   s.metric("s", func(r *repResult) float64 { return r.WallS / r.Slowness }),
		"cpu_s":    s.metric("s", func(r *repResult) float64 { return r.CPUS / r.Slowness }),
		"alloc_mb": s.metric("MB", func(r *repResult) float64 { return float64(r.Runtime.AllocBytes) / 1e6 }),
		"setup_s":  s.metric("s", func(r *repResult) float64 { return (r.BuildS + r.BootS) / r.Slowness }),
		// Simulated metrics repeat exactly (sim_digest is checked), so the
		// last rep speaks for all.
		"goodput_vmbit_s": {Value: float64(last.Delivered) * 8 / 1e6 / last.VirtualS, Unit: "vMbit/s", N: len(s.reps)},
	}
}

// measureTraced alternates untraced and traced reps for the time box and
// reports the per-layer metrics; the difference between the two kinds of
// rep is the tracing overhead.
func measureTraced(name string, opt options, tr *tracer, rungs map[string]float64) (*runRecord, error) {
	tr.workload, tr.rep = name, -1
	tr.resetProfile()
	warmup, err := warmUp(name, opt)
	if err != nil {
		return nil, err
	}
	plain, traced := newRepSet(name, opt), newRepSet(name, opt)
	var taps *tapCounts
	// Half the time box: the rung ladder has taken about the other half.
	for b := (budget{reps: opt.reps, seconds: opt.seconds / 2, start: time.Now()}); b.more(); b.done++ {
		r, err := runRep(name, opt.seed, opt.scale, nil)
		if err != nil {
			return nil, err
		}
		plain.add(r)
		quiesce()
		tr.rep = b.done
		if r, err = runRep(name, opt.seed, opt.scale, tr); err != nil {
			return nil, err
		}
		traced.add(r)
		taps = r.taps
		quiesce()
	}
	if tr.err != nil {
		return nil, fmt.Errorf("%s: CPU profile: %w", name, tr.err)
	}
	rec := traced.rec
	rec.WarmupS = warmup
	// The untraced reps must have simulated the same thing.
	if plain.rec.SimDigest != rec.SimDigest {
		rec.Failed++
		rec.Notes = append(rec.Notes, "traced and untraced sim_digest differ: a tap perturbed the simulation")
	}
	rec.Failed += plain.rec.Failed
	rec.Attempted += plain.rec.Attempted
	rec.Notes = append(rec.Notes, plain.rec.Notes...)
	rec.Correct = rec.Failed == 0
	rec.PerLayer = perLayer(plain, traced, tr, taps, rungs)
	return rec, nil
}

// perLayer assembles every per-layer metric: exact counts and host timings
// from the traced reps, cpu_ms from their profiles, the rungs, and the
// overhead of tracing against the untraced reps.
func perLayer(plain, traced *repSet, tr *tracer, taps *tapCounts, rungs map[string]float64) map[string]metricValue {
	v := map[string]float64{}
	for k, c := range traced.rec.Counts {
		v[k] = c
	}
	for k, r := range rungs {
		v[k] = r
	}
	med := func(f func(*repResult) float64) float64 { return traced.metric("", f).Value }
	normWall := func(r *repResult) float64 { return r.WallS / r.Slowness }
	wall := med(func(r *repResult) float64 { return r.WallS })
	last := traced.reps[len(traced.reps)-1]
	v["farm.build_ms"] = 1e3 * med(func(r *repResult) float64 { return r.BuildS })
	v["farm.boot_ms"] = 1e3 * med(func(r *repResult) float64 { return r.BootS })
	v["farm.run_ms"] = 1e3 * wall
	v["farm.vsec_per_s"] = last.VirtualS / wall
	if ev := v["sim.events"]; ev > 0 {
		v["sim.ns_per_event"] = 1e9 * wall / ev
	}
	if rounds := v["sim.rounds"]; rounds > 0 {
		v["sim.domains_per_round"] = v["sim.domain_windows"] / rounds
	}
	v["netsim.frame_bytes_p50"] = taps.frameMedian()
	for _, layer := range []string{"sim", "netstack", "netsim", "host", "gateway", "nat", "shim", "policy", "containment", "sink", "malware", "obs"} {
		v[layer+".cpu_ms"] = tr.cpuMS(layer)
	}
	v["netstack.checksum_cpu_ms"] = tr.cpuMS("netstack.checksum")
	v["runtime.malloc_cpu_ms"] = tr.cpuMS("runtime.malloc")
	v["runtime.gc_cpu_ms"] = 1e3 * med(func(r *repResult) float64 { return r.Runtime.GCCPUS })
	v["runtime.gc_assist_cpu_ms"] = 1e3 * med(func(r *repResult) float64 { return r.Runtime.AssistCPUS })
	v["runtime.gc_cycles"] = med(func(r *repResult) float64 { return float64(r.Runtime.GCCycles) })
	v["runtime.mallocs"] = med(func(r *repResult) float64 { return float64(r.Runtime.Mallocs) })
	v["runtime.heap_peak_mb"] = med(func(r *repResult) float64 { return float64(r.Runtime.HeapPeakBytes) / 1e6 })
	v["runtime.gc_pause_max_us"] = 1e6 * traced.metric("", func(r *repResult) float64 { return r.Runtime.PauseMaxS }).Max
	v["bench.trace_overhead_pct"] = 100 * (med(normWall)/plain.metric("", normWall).Value - 1)
	v["bench.profile_samples"] = float64(tr.samples)
	if a := traced.rec.Attempted; a > 0 {
		v["bench.failed_ops_pct"] = 100 * float64(traced.rec.Failed) / float64(a)
	}
	v["bench.escaped_bytes"] = float64(last.Escaped)
	out := make(map[string]metricValue, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}

// --- printing ---

func printCatalogue(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, d := range workloadDefs {
		fmt.Fprintf(w, "  %-20s %s\n", d.Name, d.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (name unit better bound):")
	for _, d := range endToEndDefs {
		fmt.Fprintf(w, "  %-34s %-10s %-6s %g\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Fprintln(w, "per-layer metrics (name unit better; no bound):")
	for _, d := range perLayerDefs {
		fmt.Fprintf(w, "  %-34s %-10s %s\n", d.Name, d.Unit, d.Better)
	}
}

// printMetrics prints, in catalogue order, the metrics of defs that values
// holds.
func printMetrics(w io.Writer, title string, defs []metricDef, values map[string]metricValue) {
	fmt.Fprintf(w, "## %s\n", title)
	for _, d := range defs {
		if mv, ok := values[d.Name]; ok {
			printMetric(w, d.Name, mv)
		}
	}
}

func printMetric(w io.Writer, name string, mv metricValue) {
	if mv.Samples != nil {
		fmt.Fprintf(w, "  %-34s %14.6g %-10s (min %.6g max %.6g n %d)\n", name, mv.Value, mv.Unit, mv.Min, mv.Max, mv.N)
	} else {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, mv.Value, mv.Unit)
	}
}

// driverLine is the object the driver reads from the last line of stdout.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printRun prints one workload's table and then the driver's line.
func printRun(w io.Writer, rec *runRecord, defs []metricDef, values map[string]metricValue) error {
	printMetrics(w, fmt.Sprintf("%s (seed %d, traced %v)", rec.Workload, rec.Seed, rec.Traced), defs, values)
	for _, name := range []string{"wall_raw_s", "cpu_raw_s", "setup_raw_s", "slowness"} {
		if mv, ok := rec.HostRaw[name]; ok {
			printMetric(w, name, mv)
		}
	}
	fmt.Fprintf(w, "  %-34s %s\n", "sim_digest", rec.SimDigest)
	notes := append([]string(nil), rec.Notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
	line := driverLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = driverValue{values[d.Name].Value, values[d.Name].Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("%s: result line: %w", rec.Workload, err) // a NaN or Inf metric
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// traceFile is what -out writes.
type traceFile struct {
	Env      envInfo                           `json:"env"`
	Spans    []span                            `json:"spans"`
	SelfNS   map[int]int64                     `json:"self_ns"`
	PerLayer map[string]map[string]metricValue `json:"per_layer"`
}

func writeTrace(dir string, tr *tracer, file *resultFile) error {
	tf := traceFile{Env: file.Env, Spans: tr.spans, SelfNS: map[int]int64{}, PerLayer: map[string]map[string]metricValue{}}
	for _, s := range tr.spans {
		tf.SelfNS[s.ID] = tr.selfNS(s.ID)
	}
	for _, r := range file.Runs {
		tf.PerLayer[r.Workload] = r.PerLayer
	}
	b, err := json.MarshalIndent(&tf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), append(b, '\n'), 0o644)
}
