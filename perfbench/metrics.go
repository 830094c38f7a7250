package main

import (
	"fmt"
	"sort"
	"time"

	"regalloc/internal/alloc"
	"regalloc/internal/portfolio"
)

// metricDef names one metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees, reported by
// every workload with --trace 0 and bounded in BENCHMARK.json. An
// operation is the workload's unit of work: one source→asm compile of
// the 29-unit suite (compile-*), one race sweep over the 29 units
// (portfolio-race), one round of 20 requests on one connection
// (service-*). Timings are relative to the calibration work timed
// around them (see calibrator): the host's speed drifts by more than
// the bounds, and the ratio cancels the drift. The raw milliseconds
// (compile_ms, race_ms, svc_round_ms, svc_p50_ms, cpu_ms, ...) are
// printed with them and kept in each run's -out record.
var endToEnd = []metricDef{
	{"setup_s", "s"},     // median of the run's set-ups, warm-up included
	{"latency_rel", "x"}, // median of operation time / calibration time
	{"cpu_rel", "x"},     // the same for CPU time; allocd's on service-*
	{"alloc_mb", "MB"},   // heap the serving process allocates per operation
}

// qualityDefs are the paper's outcome metrics: exact counts, the same
// on every operation.
var qualityDefs = []metricDef{
	{"vm_cycles", "count"},
	{"object_bytes", "B"},
	{"spill_ops", "count"},
	{"copies_left", "count"},
	{"spill_cost", "milli"},
}

// spanLayers maps a per-layer time metric to the span it sums.
var spanLayers = []struct{ metric, span string }{
	{"parse_ms", "parse"}, {"sem_ms", "sem"}, {"irgen_ms", "irgen"}, {"opt_ms", "opt"},
	{"alloc_ms", "alloc"}, {"lower_ms", "lower"}, {"vm_ms", "vm"},
	{"renumber_ms", "renumber"}, {"liveness_ms", "liveness"}, {"cfg_ms", "cfg"},
	{"coalesce_ms", "coalesce"}, {"graph_ms", "graph"}, {"costs_ms", "costs"},
	{"simplify_ms", "simplify"}, {"select_ms", "select"}, {"spill_insert_ms", "spill_insert"},
}

// spanCounts maps a per-layer count to the span argument it sums.
var spanCounts = []struct{ metric, span, arg string }{
	{"ir_instrs", "opt", "ir_instrs"},
	{"passes", "alloc", "passes"},
	{"live_ranges", "alloc", "live_ranges"},
	{"graph_edges", "alloc", "graph_edges"},
	{"coalesced_moves", "alloc", "coalesced_moves"},
	{"spilled_ranges", "alloc", "spilled_ranges"},
	{"scan_steps", "alloc", "scan_steps"},
}

// candidates are the default portfolio's labels as metric suffixes.
func candidates() []string {
	var out []string
	for _, c := range portfolio.Default(alloc.DefaultOptions(), portfolio.DefaultSeeds...) {
		out = append(out, candName(c.Name))
	}
	return out
}

// perLayer are the metrics of single layers, reported by every
// workload with --trace 1. A layer a workload does not exercise
// reads 0 there.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range spanLayers[:4] {
		out = append(out, metricDef{l.metric, "ms"})
	}
	for _, c := range spanCounts {
		out = append(out, metricDef{c.metric, "count"})
	}
	for _, l := range spanLayers[4:] {
		out = append(out, metricDef{l.metric, "ms"})
	}
	out = append(out, qualityDefs...)
	for _, kind := range []struct{ prefix, unit string }{{"cand_ms.", "ms"}, {"cand_wins.", "count"}, {"cand_errors.", "count"}} {
		for _, c := range candidates() {
			out = append(out, metricDef{kind.prefix + c, kind.unit})
		}
	}
	return append(out,
		metricDef{"race_useful_ratio", "ratio"},
		metricDef{"svc_hit_p50_ms", "ms"},
		metricDef{"svc_miss_p50_ms", "ms"},
		metricDef{"cache_hit_ratio", "ratio"},
		metricDef{"keying_ms", "ms"},
		metricDef{"http_floor_ms", "ms"},
		metricDef{"trace_overhead_pct", "%"},
	)
}

// traceAgg is one trace's spans, summed by name.
type traceAgg struct {
	root  string
	self  map[string]time.Duration
	total map[string]time.Duration
	args  map[string]float64 // "span/arg" -> sum
}

// layerMetrics derives the span-based per-layer metrics: for each
// layer, the median over the traces of its kind (the root span's
// name) of the layer's summed self time or count in one trace.
func layerMetrics(rec *recorder) map[string]float64 {
	self := rec.selfTimes()
	traces := make(map[int]*traceAgg)
	agg := func(t int) *traceAgg {
		a := traces[t]
		if a == nil {
			a = &traceAgg{self: map[string]time.Duration{}, total: map[string]time.Duration{}, args: map[string]float64{}}
			traces[t] = a
		}
		return a
	}
	rootOf := make(map[string]string) // span name -> root name of its first trace
	var hit, miss, floor []float64
	var cached, hits float64
	for i, s := range rec.spans {
		a := agg(s.Trace)
		if s.Parent < 0 {
			a.root = s.Name
		}
		a.self[s.Name] += self[i]
		a.total[s.Name] += s.End - s.Start
		for k, v := range s.Args {
			if n, ok := v.(int); ok {
				a.args[s.Name+"/"+k] += float64(n)
			}
		}
		switch s.Name {
		case "v1/alloc":
			switch s.Args["cache"] {
			case "hit":
				hit, hits, cached = append(hit, ms(s.End-s.Start)), hits+1, cached+1
			case "miss":
				miss, cached = append(miss, ms(s.End-s.Start)), cached+1
			case "shared":
				cached++
			}
		case "healthz":
			floor = append(floor, ms(s.End-s.Start))
		}
	}
	for _, s := range rec.spans {
		if _, ok := rootOf[s.Name]; !ok {
			rootOf[s.Name] = traces[s.Trace].root
		}
	}
	// over returns the median over traces rooted like span of f(trace).
	over := func(span string, f func(*traceAgg) float64) float64 {
		root, ok := rootOf[span]
		if !ok {
			return 0
		}
		var xs []float64
		for _, a := range traces {
			if a.root == root {
				xs = append(xs, f(a))
			}
		}
		return median(xs)
	}
	out := make(map[string]float64)
	for _, l := range spanLayers {
		out[l.metric] = over(l.span, func(a *traceAgg) float64 { return ms(a.self[l.span]) })
	}
	for _, c := range spanCounts {
		out[c.metric] = over(c.span, func(a *traceAgg) float64 { return a.args[c.span+"/"+c.arg] })
	}
	out["keying_ms"] = over("keying", func(a *traceAgg) float64 { return ms(a.total["keying"]) })
	out["svc_hit_p50_ms"] = median(hit)
	out["svc_miss_p50_ms"] = median(miss)
	out["http_floor_ms"] = median(floor)
	out["cache_hit_ratio"] = 0
	if cached > 0 {
		out["cache_hit_ratio"] = hits / cached
	}
	return out
}

// detail is one metric as a run reports it in its -out record: the
// value plus, for sampled timings, the exact quartiles and count.
type detail struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n,omitempty"`
	P25   *float64 `json:"p25,omitempty"`
	P75   *float64 `json:"p75,omitempty"`
	P95   *float64 `json:"p95,omitempty"`
}

// sampled describes a timing by its median, with quartiles and count.
func sampled(xs []float64, unit string) detail {
	s := summarize(xs)
	d := detail{Value: s.P50, Unit: unit, N: s.N}
	if s.N > 1 {
		d.P25, d.P75 = &s.P25, &s.P75
	}
	if s.HasP95 {
		d.P95 = &s.P95
	}
	return d
}

// line renders a detail for the human-readable report.
func (d detail) line(name string) string {
	s := fmt.Sprintf("%-26s %14.6g %-6s", name, d.Value, d.Unit)
	if d.P25 != nil {
		s += fmt.Sprintf("  p25 %.6g  p75 %.6g", *d.P25, *d.P75)
	}
	if d.P95 != nil {
		s += fmt.Sprintf("  p95 %.6g", *d.P95)
	}
	if d.N > 0 {
		s += fmt.Sprintf("  n=%d", d.N)
	}
	return s
}

// sortedNames returns m's keys in order.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
