// Command abstat pairs the runs of two `bench -json` files by index and
// prints, for each workload and end-to-end metric of the BENCHMARK.json in
// the working directory (the repository root), both medians, the change,
// how many pairs the change won and the parent's interquartile range. With
// -claim workload:metric:pct it also prints the verdict of the claim rule:
// the change's median is better by at least pct percent, it won at least
// nine pairs in ten, and its median gain is larger than the parent's
// interquartile range.
//
//	go run ./scripts/abstat [-claim flow_churn:alloc_mb:15] parent.json change.json
//
// scripts/bench_ab.sh runs it on the files it keeps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchmark is the part of BENCHMARK.json abstat reads.
type benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// results is the part of a `bench -json` file abstat reads: its runs, in the
// order they were appended.
type results struct {
	Runs []struct {
		Workload string `json:"workload"`
		Traced   bool   `json:"traced"`
		EndToEnd map[string]struct {
			Value float64 `json:"value"`
		} `json:"end_to_end"`
	} `json:"runs"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	claim := fs.String("claim", "", "workload:metric:pct — print the claim rule's verdict")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: abstat [-claim workload:metric:pct] parent.json change.json")
		return 2
	}
	var b benchmark
	var parent, change results
	for _, f := range []struct {
		path string
		into any
	}{{"BENCHMARK.json", &b}, {fs.Arg(0), &parent}, {fs.Arg(1), &change}} {
		data, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(data, f.into)
		}
		if err != nil {
			fmt.Fprintln(stderr, "abstat:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%-19s %-16s %12s %12s %9s %6s %12s\n",
		"workload", "metric", "parent", "change", "change%", "won", "parent IQR")
	for _, w := range b.Workloads {
		pv, cv := parent.values(w.Name), change.values(w.Name)
		if len(pv) == 0 && len(cv) == 0 {
			continue
		}
		for _, m := range b.EndToEnd {
			s := pair(pv[m.Name], cv[m.Name], m.Better == "higher")
			fmt.Fprintf(stdout, "%-19s %-16s %12.4f %12.4f %+8.2f%% %3d/%-2d %12.4f\n",
				w.Name, m.Name, s.parentMed, s.changeMed, s.changePct, s.won, s.pairs, s.parentIQR)
		}
	}
	if *claim == "" {
		return 0
	}
	parts := strings.Split(*claim, ":")
	pct, err := strconv.ParseFloat(parts[len(parts)-1], 64)
	if len(parts) != 3 || err != nil {
		fmt.Fprintf(stderr, "abstat: claim %q is not workload:metric:pct\n", *claim)
		return 2
	}
	var m *metric
	for i := range b.EndToEnd {
		if b.EndToEnd[i].Name == parts[1] {
			m = &b.EndToEnd[i]
		}
	}
	if m == nil {
		fmt.Fprintf(stderr, "abstat: claim names unknown metric %q\n", parts[1])
		return 2
	}
	s := pair(parent.values(parts[0])[m.Name], change.values(parts[0])[m.Name], m.Better == "higher")
	v := s.verdict(pct)
	fmt.Fprintf(stdout, "claim %s: %s\n", *claim, v)
	if !strings.HasPrefix(v, "met") {
		return 1
	}
	return 0
}

// values returns one workload's untraced runs' end-to-end values, per
// metric, in run order.
func (r *results) values(workload string) map[string][]float64 {
	out := map[string][]float64{}
	for _, run := range r.Runs {
		if run.Workload != workload || run.Traced {
			continue
		}
		for name, v := range run.EndToEnd {
			out[name] = append(out[name], v.Value)
		}
	}
	return out
}

// stats is one metric of one workload, the parent's runs paired with the
// change's by index.
type stats struct {
	pairs, won           int
	parentMed, changeMed float64
	changePct            float64 // the change's median against the parent's, in percent
	gain                 float64 // how much better the change's median is, in the metric's unit
	parentIQR            float64
}

// pair compares the runs of two sides; a pair is won when the change's run
// is strictly better than the parent's.
func pair(parent, change []float64, higherBetter bool) stats {
	n := min(len(parent), len(change))
	s := stats{pairs: n}
	if n == 0 {
		return s
	}
	parent, change = parent[:n], change[:n]
	for i := range parent {
		if better(change[i], parent[i], higherBetter) {
			s.won++
		}
	}
	ps, cs := sorted(parent), sorted(change)
	s.parentMed, s.changeMed = median(ps), median(cs)
	s.gain = s.parentMed - s.changeMed
	if higherBetter {
		s.gain = -s.gain
	}
	if s.parentMed != 0 {
		s.changePct = 100 * (s.changeMed - s.parentMed) / s.parentMed
	}
	s.parentIQR = quartile(ps, 3) - quartile(ps, 1)
	return s
}

// verdict applies the claim rule for a gain of at least pct percent.
func (s stats) verdict(pct float64) string {
	var missed []string
	if s.pairs == 0 || s.parentMed == 0 {
		return "not met (no runs)"
	}
	if gainPct := 100 * s.gain / s.parentMed; gainPct < pct {
		missed = append(missed, fmt.Sprintf("gain %.2f%% < %g%%", gainPct, pct))
	}
	if s.won*10 < s.pairs*9 {
		missed = append(missed, fmt.Sprintf("won %d/%d pairs < 9 in 10", s.won, s.pairs))
	}
	if s.gain <= s.parentIQR {
		missed = append(missed, fmt.Sprintf("gain %.4f <= parent IQR %.4f", s.gain, s.parentIQR))
	}
	if len(missed) > 0 {
		return "not met: " + strings.Join(missed, ", ")
	}
	return fmt.Sprintf("met (gain %.2f%%, won %d/%d, gain %.4f > parent IQR %.4f)",
		100*s.gain/s.parentMed, s.won, s.pairs, s.gain, s.parentIQR)
}

func better(a, b float64, higherBetter bool) bool {
	if higherBetter {
		return a > b
	}
	return a < b
}

func sorted(v []float64) []float64 {
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	return v
}

func median(v []float64) float64 {
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quartile returns the i-th quartile of sorted v the way Python's
// statistics.quantiles(n=4) does (the exclusive method), as bench -compare
// computes its spread.
func quartile(v []float64, i int) float64 {
	n := len(v)
	if n < 2 {
		return v[0]
	}
	j := i * (n + 1) / 4
	j = max(1, min(j, n-1))
	d := float64(i*(n+1) - j*4)
	return (v[j-1]*(4-d) + v[j]*d) / 4
}
