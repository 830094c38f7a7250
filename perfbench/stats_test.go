package main

import (
	"slices"
	"testing"
)

// seq returns 1, 2, ..., n.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// TestSummarizeNearestRank checks summarize against quantiles worked
// out by hand with the nearest-rank rule: the pct-th percentile of n
// sorted values is value number ceil(pct·n/100).
func TestSummarizeNearestRank(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want summary
	}{
		{"empty", nil, summary{}},
		{"one value", []float64{5}, summary{N: 1, P25: 5, P50: 5, P75: 5}},
		// ranks ceil(0.75)=1, ceil(1.5)=2, ceil(2.25)=3
		{"three unsorted", []float64{3, 1, 2}, summary{N: 3, P25: 1, P50: 2, P75: 3}},
		// ranks 1, 2, 3: the median of an even sample is the lower middle
		{"four", []float64{40, 10, 30, 20}, summary{N: 4, P25: 10, P50: 20, P75: 30}},
		// ranks ceil(2.5)=3, 5, ceil(7.5)=8; p95 is rank 10, nothing beyond
		{"ten", seq(10), summary{N: 10, P25: 3, P50: 5, P75: 8}},
		// p95 is rank ceil(189.05)=190: 9 samples beyond it, too few
		{"199", seq(199), summary{N: 199, P25: 50, P50: 100, P75: 150}},
		// p95 is rank 190 with exactly 10 samples beyond it
		{"200", seq(200), summary{N: 200, P25: 50, P50: 100, P75: 150, P95: 190, HasP95: true}},
		// ranks ceil(75.25)=76, ceil(150.5)=151, ceil(225.75)=226, ceil(285.95)=286
		{"301", seq(301), summary{N: 301, P25: 76, P50: 151, P75: 226, P95: 286, HasP95: true}},
		{"ties", []float64{2, 2, 2, 9}, summary{N: 4, P25: 2, P50: 2, P75: 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := slices.Clone(c.xs)
			if got := summarize(c.xs); got != c.want {
				t.Errorf("summarize = %+v, want %+v", got, c.want)
			}
			if !slices.Equal(in, c.xs) {
				t.Errorf("summarize reordered its input: %v, was %v", c.xs, in)
			}
		})
	}
}

func TestRankIsExact(t *testing.T) {
	cases := []struct{ n, pct, want int }{
		{100, 7, 7}, // 0.07·100 is 7.000000000000001 in floating point
		{200, 95, 190},
		{199, 95, 190},
		{1, 25, 1},
		{4, 50, 2},
	}
	for _, c := range cases {
		if r := rank(c.n, c.pct); r != c.want {
			t.Errorf("rank(%d, %d) = %d, want %d", c.n, c.pct, r, c.want)
		}
	}
}
