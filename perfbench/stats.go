package main

import (
	"sort"
)

// summary is an exact description of a sample: nearest-rank quartiles
// over the raw values, plus p95 when the sample is large enough for
// that percentile to have at least minBeyond samples above its rank.
type summary struct {
	N      int
	P25    float64
	P50    float64
	P75    float64
	P95    float64
	HasP95 bool
}

// minBeyond is how many samples must lie beyond a tail percentile's
// rank before it is reported: fewer, and the "percentile" is one or
// two outliers.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the pct-th percentile
// in a sample of n: the smallest r with r/n >= pct/100. Integer
// arithmetic keeps it exact: in floating point 0.07·100 is
// 7.000000000000001, whose ceiling is 8.
func rank(n, pct int) int {
	r := (pct*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank pct-th percentile of sorted.
func percentile(sorted []float64, pct int) float64 {
	return sorted[rank(len(sorted), pct)-1]
}

// summarize describes xs exactly; it does not modify xs. An empty
// sample summarizes to all zeros with N = 0.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{
		N:   len(s),
		P25: percentile(s, 25),
		P50: percentile(s, 50),
		P75: percentile(s, 75),
	}
	if len(s)-rank(len(s), 95) >= minBeyond {
		out.P95 = percentile(s, 95)
		out.HasP95 = true
	}
	return out
}

// median is summarize(xs).P50.
func median(xs []float64) float64 { return summarize(xs).P50 }
