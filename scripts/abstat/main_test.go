package main

import (
	"strings"
	"testing"
)

// The quartiles are Python's statistics.quantiles(n=4): for 1..10 they are
// 2.75 and 8.25.
func TestQuartileMatchesPython(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartile(v, 1), quartile(v, 3); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
}

// Each clause of the claim rule can fail the claim on its own.
func TestClaimRule(t *testing.T) {
	parent := []float64{30.1, 30.2, 30.0, 30.3, 30.1, 30.2, 30.15, 30.05, 30.25, 30.1}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		higher bool
		pct    float64
		want   string
	}{
		{"20 % lower", scale(parent, 0.8), false, 15, "met"},
		{"short of the percentage", scale(parent, 0.9), false, 15, "gain 10.00% < 15%"},
		{"higher is better", scale(parent, 1.2), true, 15, "met"},
		{"pairs lost", append(scale(parent[:8], 0.8), 31, 31), false, 15, "won 8/10 pairs"},
		{"inside the parent's spread", []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, false, 15, "met"},
	} {
		s := pair(parent, tc.change, tc.higher)
		if got := s.verdict(tc.pct); !strings.Contains(got, tc.want) {
			t.Errorf("%s: verdict %q, want it to say %q", tc.name, got, tc.want)
		}
	}
	wide := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got := pair(wide, scale(wide, 0.7), false).verdict(15); !strings.Contains(got, "<= parent IQR") {
		t.Errorf("gain inside the parent's IQR: verdict %q", got)
	}
}
