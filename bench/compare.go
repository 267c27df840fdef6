package main

// bench -compare a.json b.json: the regression check. a is the parent, b the
// change; both are files written by -json. For every (workload, end-to-end
// metric) it prints both medians, the delta and the bound, and where both
// files ran a workload at the same seed it demands the simulation repeated
// exactly.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func loadResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// observations are a side's values of one metric on one workload: one per
// run when the file holds several runs, else the single run's per-rep
// samples.
func observations(f *resultFile, workload, metric string) []float64 {
	var runs []metricValue
	for _, r := range f.Runs {
		if mv, ok := r.EndToEnd[metric]; ok && r.Workload == workload && !r.Traced {
			runs = append(runs, mv)
		}
	}
	if len(runs) == 1 {
		if len(runs[0].Samples) > 0 {
			return append([]float64(nil), runs[0].Samples...)
		}
		return []float64{runs[0].Value}
	}
	vals := make([]float64, len(runs))
	for i, mv := range runs {
		vals[i] = mv.Value
	}
	return vals
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, quartiles as Python's statistics.quantiles(n=4)
// gives them (the driver's rule). vals must be sorted and non-empty.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 || median(vals) == 0 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		d := float64(i*(n+1) - j*4)
		return (vals[j-1]*(4-d) + vals[j]*d) / 4
	}
	return (q(3) - q(1)) / median(vals)
}

type verdict string

const (
	vOK         verdict = "ok"
	vBetter     verdict = "better"
	vUnresolved verdict = "unresolved"
	vBreach     verdict = "BREACH"
)

// judge applies the bound: a is the parent, b the change, both sorted.
// worse is how much b's median is worse than a's, as a share of a's.
func judge(a, b []float64, d metricDef) (worse, spread float64, v verdict) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
	}
	if d.Better == "higher" {
		worse = -worse
	}
	spread = max(quartileSpread(a), quartileSpread(b))
	// Every run of one side beats every run of the other.
	bAllBetter, bAllWorse := b[len(b)-1] < a[0], b[0] > a[len(a)-1]
	if d.Better == "higher" {
		bAllBetter, bAllWorse = bAllWorse, bAllBetter
	}
	switch {
	case spread > d.Bound && bAllBetter:
		return worse, spread, vBetter
	case spread > d.Bound && !(bAllWorse && worse > d.Bound):
		return worse, spread, vUnresolved
	case worse > d.Bound:
		return worse, spread, vBreach
	case worse < -d.Bound:
		return worse, spread, vBetter
	}
	return worse, spread, vOK
}

// sameSeedAllocBound is how much alloc_mb may grow between two runs of one
// workload at one seed.
const sameSeedAllocBound = 0.02

// runKey identifies runs that must have simulated the same thing.
type runKey struct {
	workload string
	seed     int64
	traced   bool
}

func compareFiles(aPath, bPath string, stdout, stderr io.Writer) int {
	fa, err := loadResults(aPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fb, err := loadResults(bPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareResults(fa, fb, stdout)
}

func compareResults(fa, fb *resultFile, w io.Writer) int {
	breaches := 0
	fmt.Fprintf(w, "%-20s %-16s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "spread", "verdict")
	for _, wl := range workloadDefs {
		for _, d := range endToEndDefs {
			a, b := observations(fa, wl.Name, d.Name), observations(fb, wl.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			sort.Float64s(a)
			sort.Float64s(b)
			worse, spread, v := judge(a, b, d)
			if v == vBreach {
				breaches++
			}
			fmt.Fprintf(w, "%-20s %-16s %14.6g %14.6g %+8.2f%% %6.1f%% %7.2f%%  %s\n",
				wl.Name, d.Name, median(a), median(b), 100*worse, 100*d.Bound, 100*spread, v)
		}
	}
	// Same workload, same seed: the simulation must have repeated exactly.
	byKey := map[runKey]runRecord{}
	for _, r := range fa.Runs {
		byKey[runKey{r.Workload, r.Seed, r.Traced}] = r
	}
	compared := map[runKey]bool{}
	for _, rb := range fb.Runs {
		k := runKey{rb.Workload, rb.Seed, rb.Traced}
		ra, ok := byKey[k]
		if !ok || compared[k] {
			continue
		}
		compared[k] = true
		var diffs []string
		if ra.SimDigest != rb.SimDigest {
			diffs = append(diffs, fmt.Sprintf("sim_digest %.12s != %.12s", ra.SimDigest, rb.SimDigest))
		}
		for name, va := range ra.Counts {
			if vb := rb.Counts[name]; va != vb {
				diffs = append(diffs, fmt.Sprintf("%s %v != %v", name, va, vb))
			}
		}
		if ga, gb := ra.EndToEnd["goodput_vmbit_s"].Value, rb.EndToEnd["goodput_vmbit_s"].Value; ga != gb {
			diffs = append(diffs, fmt.Sprintf("goodput_vmbit_s %v != %v", ga, gb))
		}
		// At one seed allocation repeats to 4 digits, so it gets a far
		// tighter bound here than across the driver's varying seeds.
		if aa, ab := ra.EndToEnd["alloc_mb"].Value, rb.EndToEnd["alloc_mb"].Value; ab > aa*(1+sameSeedAllocBound) {
			diffs = append(diffs, fmt.Sprintf("alloc_mb %.6g -> %.6g, more than %g%% worse at one seed", aa, ab, 100*sameSeedAllocBound))
		}
		sort.Strings(diffs)
		if len(diffs) == 0 {
			fmt.Fprintf(w, "%-20s seed %-4d simulation identical (digest %.12s, %d counts)\n", k.workload, k.seed, rb.SimDigest, len(rb.Counts))
			continue
		}
		breaches++
		fmt.Fprintf(w, "%-20s seed %-4d DIFFERS AT ONE SEED:\n", k.workload, k.seed)
		for _, d := range diffs {
			fmt.Fprintf(w, "    %s\n", d)
		}
	}
	for _, f := range []*resultFile{fa, fb} {
		for _, r := range f.Runs {
			if !r.Correct {
				breaches++
				fmt.Fprintf(w, "%-20s seed %-4d run was not correct: %d of %d operations failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
			}
		}
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d breach(es)\n", breaches)
		return 1
	}
	return 0
}
