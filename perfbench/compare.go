package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []bound `json:"end_to_end"`
}

// bound is an end-to-end metric's direction and regression bound: the
// share of the baseline median by which it may worsen.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// Verdicts of a comparison.
const (
	better     = "better"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved" // the run-to-run spread is wider than the bound
	identical  = "identical"  // an exact count equal in every run
	differs    = "differs"    // an exact count that is not
)

// verdict compares one (workload, metric) pair across two run sets.
type verdict struct {
	workload, metric string
	a, b             float64 // medians
	spread           float64 // the wider side's (p75-p25)/median
	change           float64 // (b-a)/a, positive meaning worse
	outcome          string
}

// spreadOf is a sample's interquartile range as a share of its median.
func spreadOf(xs []float64) float64 {
	s := summarize(xs)
	if s.P50 == 0 {
		return 0
	}
	return (s.P75 - s.P25) / s.P50
}

// judge classifies B against baseline A for a metric with bound bd:
// better when every B run beats every A run; otherwise unresolved when
// the run-to-run spread exceeds the bound, worse when B's median is
// worse by more than the bound, and better when it is better by more
// than the spread.
func judge(a, b []float64, bd bound) verdict {
	sign := 1.0
	if bd.Better == "higher" {
		sign = -1
	}
	v := verdict{a: median(a), b: median(b), spread: max(spreadOf(a), spreadOf(b))}
	if v.a != 0 {
		v.change = sign * (v.b - v.a) / v.a
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		v.outcome = better
	case v.spread > bd.Bound:
		v.outcome = unresolved
	case v.change > bd.Bound:
		v.outcome = worse
	case v.change < -v.spread:
		v.outcome = better
	default:
		v.outcome = unchanged
	}
	return v
}

// compareSets judges every end-to-end metric of every workload the
// two sets share (untraced runs), and checks that each exact quality
// count reads the same in every run of both sets.
func compareSets(bounds []bound, a, b []report) []verdict {
	type key struct{ workload, metric string }
	values := func(runs []report) map[key][]float64 {
		out := make(map[key][]float64)
		for _, r := range runs {
			if r.Trace {
				continue
			}
			for name, d := range r.Metrics {
				out[key{r.Workload, name}] = append(out[key{r.Workload, name}], d.Value)
			}
		}
		return out
	}
	va, vb := values(a), values(b)
	var workloads []string
	seen := make(map[string]bool)
	for k := range va {
		if _, ok := vb[k]; ok && !seen[k.workload] {
			seen[k.workload] = true
			workloads = append(workloads, k.workload)
		}
	}
	sort.Strings(workloads)
	var out []verdict
	for _, w := range workloads {
		for _, bd := range bounds {
			xa, xb := va[key{w, bd.Name}], vb[key{w, bd.Name}]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := judge(xa, xb, bd)
			v.workload, v.metric = w, bd.Name
			out = append(out, v)
		}
		for _, q := range qualityDefs {
			xa, xb := va[key{w, q.name}], vb[key{w, q.name}]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := verdict{workload: w, metric: q.name, a: median(xa), b: median(xb), outcome: identical}
			for _, x := range append(xa, xb...) {
				if x != xa[0] {
					v.outcome = differs
				}
			}
			out = append(out, v)
		}
	}
	return out
}

// readRuns reads a file of -out records, one JSON report per line.
func readRuns(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return runs, nil
}

// runCompare prints the verdict table for run sets a (the baseline)
// and b, with bounds from the benchmark file. It fails when a pair is
// worse, unresolved or differs.
func runCompare(w io.Writer, benchmarkPath, aPath, bPath string) error {
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	a, err := readRuns(aPath)
	if err != nil {
		return err
	}
	b, err := readRuns(bPath)
	if err != nil {
		return err
	}
	verdicts := compareSets(bf.EndToEnd, a, b)
	if len(verdicts) == 0 {
		return fmt.Errorf("%s and %s share no untraced workload runs", aPath, bPath)
	}
	bad := 0
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %9s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "verdict")
	for _, v := range verdicts {
		fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %+8.2f%% %7.2f%%  %s\n",
			v.workload, v.metric, v.a, v.b, 100*v.change, 100*v.spread, v.outcome)
		if v.outcome == worse || v.outcome == unresolved || v.outcome == differs {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d pairs are worse, unresolved or differ", bad, len(verdicts))
	}
	return nil
}
