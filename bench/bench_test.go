package main

// The smoke test that rides tier-1: every workload at 1/50 scale with all
// output checks on, the catalogue against BENCHMARK.json, the rung
// assertions, the compare rules and the profile reader.

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

const smokeScale = 0.02

// benchmarkJSON mirrors the driver's schema for BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) || !reflect.DeepEqual(bj.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("command %v paths %v, want go run ./bench and [bench]", bj.Command, bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", bj.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the allowed charset", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(bj.Workloads); n != len(workloadDefs) || n < 2 || n > 8 {
		t.Fatalf("%d workloads declared, catalogue has %d (limit 2..8)", n, len(workloadDefs))
	}
	for i, w := range bj.Workloads {
		checkName("workload", w.Name)
		if d := workloadDefs[i]; w.Name != d.Name || w.Why != d.Why {
			t.Errorf("workload %d is %q/%q, catalogue says %q/%q", i, w.Name, w.Why, d.Name, d.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if builders[w.Name] == nil {
			t.Errorf("workload %s has no builder", w.Name)
		}
	}
	if n := len(bj.EndToEnd); n != len(endToEndDefs) || n > 16 {
		t.Fatalf("%d end-to-end metrics declared, catalogue has %d (limit 16)", n, len(endToEndDefs))
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		checkName("metric", m.Name)
		d := endToEndDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d is %+v, catalogue says %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q or bound %v not allowed", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower")
	}
	if n := len(bj.PerLayer); n != len(perLayerDefs) || n > 128 {
		t.Fatalf("%d per-layer metrics declared, catalogue has %d (limit 128)", n, len(perLayerDefs))
	}
	for i, m := range bj.PerLayer {
		checkName("metric", m.Name)
		d := perLayerDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %d is %+v, catalogue says %+v", i, m, d)
		}
	}
}

// keys returns a metric map's names, sorted.
func keys(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	out := make([]string, 0, len(defs))
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsSmoke runs every workload twice at one seed: all output
// checks pass, the two reps agree on digest and every exact count, and the
// end-to-end metrics reported are exactly the declared set, none zero.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			set := newRepSet(w.Name, options{seed: 3})
			for rep := 0; rep < 2; rep++ {
				r, err := runRep(w.Name, 3, smokeScale, nil)
				if err != nil {
					t.Fatal(err)
				}
				if r.Attempted == 0 {
					t.Error("no operation was attempted")
				}
				set.add(r)
			}
			if rec := set.rec; !rec.Correct {
				t.Errorf("%d of %d operations failed:\n%s", rec.Failed, rec.Attempted, strings.Join(rec.Notes, "\n"))
			}
			e2e := endToEnd(set)
			if got, want := keys(e2e), defNames(endToEndDefs); !reflect.DeepEqual(got, want) {
				t.Errorf("end-to-end metrics %v, declared %v", got, want)
			}
			for name, mv := range e2e {
				if mv.Value <= 0 {
					t.Errorf("%s = %v, must never be 0", name, mv.Value)
				}
			}
		})
	}
}

// TestSeedChangesInputs: another seed must give another simulation, or the
// seed is not reaching the inputs.
func TestSeedChangesInputs(t *testing.T) {
	a, err := runRep("flow_churn", 1, smokeScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRep("flow_churn", 2, smokeScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Error("seeds 1 and 2 produced the same journal")
	}
}

// TestTracedRun drives the driver's --trace 1 path at smoke scale: every
// declared per-layer metric is emitted, the spans nest as documented, and
// the last line of output is the driver's object.
func TestTracedRun(t *testing.T) {
	var out bytes.Buffer
	file, err := execute(options{seed: 1, workloads: []string{"flow_churn"}, reps: 1, trace: true, scale: smokeScale}, &out)
	if err != nil {
		t.Fatal(err)
	}
	rec := file.Runs[0]
	if !rec.Correct {
		t.Errorf("traced run incorrect: %v", rec.Notes)
	}
	if got, want := keys(rec.PerLayer), defNames(perLayerDefs); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics emitted and declared differ:\n got %v\nwant %v", got, want)
	}
	for _, name := range []string{"sim.events", "gateway.flows_created", "gateway.router_tap_pkts", "containment.rx_pkts", "netsim.tap_bytes", "obs.journal_events", "farm.run_ms"} {
		if rec.PerLayer[name].Value <= 0 {
			t.Errorf("%s = %v on flow_churn, want > 0", name, rec.PerLayer[name].Value)
		}
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last output line is not JSON: %v", err)
	}
	var got []string
	for k := range line {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(got, want) {
		t.Errorf("driver line has keys %v, want %v", got, want)
	}
}

func TestSpansNest(t *testing.T) {
	tr := newTracer()
	tr.workload = "bulk_proxy"
	if _, err := runRep("bulk_proxy", 1, smokeScale, tr); err != nil {
		t.Fatal(err)
	}
	byName := map[string]span{}
	for _, s := range tr.spans {
		byName[s.Name] = s
		if s.EndNS < s.StartNS || tr.selfNS(s.ID) < 0 {
			t.Errorf("span %s: start %d end %d self %d", s.Name, s.StartNS, s.EndNS, tr.selfNS(s.ID))
		}
	}
	root := byName["workload"]
	for _, name := range []string{"setup.build", "setup.boot", "run", "verify"} {
		if s, ok := byName[name]; !ok || s.Parent != root.ID {
			t.Errorf("span %s missing or not under workload", name)
		}
	}
	if s, ok := byName["run.vslice.0"]; !ok || s.Parent != byName["run"].ID {
		t.Error("run.vslice.0 missing or not under run")
	}
}

// TestRungs runs the ladder small; each rung's own correctness assertion
// (frames delivered, mutated frame reparses with valid checksums, ...) fails
// the run.
func TestRungs(t *testing.T) {
	values, err := runRungs(newTracer(), smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayerDefs {
		if !strings.Contains(d.Name, ".rung.") {
			continue
		}
		if v, ok := values[d.Name]; !ok || v < 0 || (v == 0 && !strings.HasSuffix(d.Name, "_allocs")) {
			t.Errorf("rung %s = %v (present %v)", d.Name, v, ok)
		}
	}
	for name := range values {
		if !strings.Contains(name, ".rung.") {
			t.Errorf("ladder reported %s, not a rung", name)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "goodput_vmbit_s", Better: "higher", Bound: 0.05}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c, c * 1.01} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c * 0.9, c * 1.1, c * 1.3} }
	for _, tc := range []struct {
		name string
		a, b []float64
		d    metricDef
		want verdict
	}{
		{"same", tight(1), tight(1.02), lower, vOK},
		{"slower past the bound", tight(1), tight(1.2), lower, vBreach},
		{"faster past the bound", tight(1), tight(0.8), lower, vBetter},
		{"noisy", wide(1), wide(1.05), lower, vUnresolved},
		{"noisy but every run slower", wide(1), wide(3), lower, vBreach},
		{"noisy but every run faster", wide(3), wide(1), lower, vBetter},
		{"goodput fell", tight(100), tight(90), higher, vBreach},
		{"goodput rose", tight(100), tight(110), higher, vBetter},
	} {
		if _, _, got := judge(tc.a, tc.b, tc.d); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareExact: equal files agree; a changed count or digest is a breach.
func TestCompareExact(t *testing.T) {
	mk := func(digest string, events float64) *resultFile {
		return &resultFile{Runs: []runRecord{{
			Workload: "flow_churn", Seed: 1, Correct: true, SimDigest: digest,
			Counts: map[string]float64{"sim.events": events},
			EndToEnd: map[string]metricValue{
				"wall_s":          {Value: 1, Unit: "s", Samples: []float64{0.99, 1, 1.01}},
				"goodput_vmbit_s": {Value: 5, Unit: "vMbit/s"},
			},
		}}}
	}
	var out bytes.Buffer
	if code := compareResults(mk("aa", 10), mk("aa", 10), &out); code != 0 {
		t.Errorf("identical files: exit %d\n%s", code, out.String())
	}
	if code := compareResults(mk("aa", 10), mk("aa", 11), &out); code != 1 {
		t.Errorf("changed count: exit %d", code)
	}
	if code := compareResults(mk("aa", 10), mk("bb", 10), &out); code != 1 {
		t.Errorf("changed digest: exit %d", code)
	}
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	for deadline := time.Now().Add(150 * time.Millisecond); time.Now().Before(deadline); {
		sinkhole += spin(1 << 12)
	}
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var ns int64
	found := false
	for _, s := range prof.samples {
		ns += s.cpuNS
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, ".spin")
		}
	}
	if len(prof.samples) == 0 || ns <= 0 || !found {
		t.Errorf("%d samples, %d ns, spin seen: %v", len(prof.samples), ns, found)
	}
	if got := layerOf("gq/internal/netstack.(*Packet).Marshal"); got != "netstack" {
		t.Errorf("layerOf = %q", got)
	}
	if layerOf("container/heap.Push") != "sim" || layerOf("gq/internal/smtpx.(*Engine).Feed") != "sink" || layerOf("runtime.mallocgc") != "" {
		t.Error("layerOf misattributes the heap, the SMTP engine or the runtime")
	}
}

//go:noinline
func spin(n int) uint64 {
	var x uint64
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + uint64(i)
	}
	return x
}
