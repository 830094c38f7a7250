// report.go is the JSON report allocload emits: schema
// regalloc-bench/12, which carries the loadtest section added in /6,
// the /7 error_latency split (transport failures quantified apart
// from service latency), the /9 trace linkage — the trace IDs of
// the slowest and errored requests plus their flight-recorder span
// trees, fetched back from allocd after the run — and, since /12,
// exact percentiles over every request.
package main

import (
	"sort"
	"time"
)

// quantiles summarizes a latency sample exactly: nearest-rank
// percentiles, the mean and the maximum over every observation.
type quantiles struct {
	Count  int64 `json:"count"`
	P50NS  int64 `json:"p50_ns"`
	P95NS  int64 `json:"p95_ns"`
	P99NS  int64 `json:"p99_ns"`
	MeanNS int64 `json:"mean_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// quantilesOf summarizes ds without modifying it. The pct-th
// percentile is the sample at nearest rank r, the smallest r with
// r/n >= pct/100 (perfbench's rule, in integer arithmetic so the rank
// is exact).
func quantilesOf(ds []time.Duration) quantiles {
	n := len(ds)
	if n == 0 {
		return quantiles{}
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(pct int) int64 { return s[(pct*n+99)/100-1].Nanoseconds() }
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return quantiles{
		Count:  int64(n),
		P50NS:  at(50),
		P95NS:  at(95),
		P99NS:  at(99),
		MeanNS: (sum / time.Duration(n)).Nanoseconds(),
		MaxNS:  s[n-1].Nanoseconds(),
	}
}

type corpusSummary struct {
	Items   int `json:"items"`
	Sources int `json:"sources"`
	Graphs  int `json:"graphs"`
	Fuzzed  int `json:"fuzzed"`
}

type cacheSummary struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	Shared  int64   `json:"shared"`
	HitRate float64 `json:"hit_rate"`
}

// loadtestSection is the regalloc-bench/6 addition: one load run's
// aggregate view of the service.
type loadtestSection struct {
	Target      string  `json:"target"`
	Mode        string  `json:"mode"` // closed or open
	DurationNS  int64   `json:"duration_ns"`
	Concurrency int     `json:"concurrency"`
	RateRPS     float64 `json:"rate_rps,omitempty"`

	Corpus corpusSummary `json:"corpus"`

	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	ErrorRate  float64 `json:"error_rate"`
	Dropped    int64   `json:"dropped,omitempty"` // open loop: ticks shed at the outstanding-request bound
	Throughput float64 `json:"throughput_rps"`

	// Latency covers only requests the service answered; transport
	// failures (connect errors, client timeouts) land in ErrorLatency
	// instead, so an outage cannot skew — or hide behind — the
	// SLO-facing p99.
	Latency      quantiles        `json:"latency"`
	ErrorLatency *quantiles       `json:"error_latency,omitempty"`
	Statuses     map[string]int64 `json:"statuses"`
	Cache        cacheSummary     `json:"cache"`

	// SlowTraceIDs names the slowest successfully answered requests,
	// slowest first; ErrorTraceIDs the first errored replies. Both are
	// lookup keys into allocd's flight recorder (GET /debug/requests),
	// its access log, and its /metrics exemplars; Traces carries what
	// the flight recorder still held for them when the run ended. New
	// in regalloc-bench/9.
	SlowTraceIDs  []string       `json:"slow_trace_ids"`
	ErrorTraceIDs []string       `json:"error_trace_ids,omitempty"`
	Traces        []traceSummary `json:"traces,omitempty"`
}

// traceSummary is one flight-recorder record fetched back from the
// target after the run: the span-tree evidence behind a
// slow_trace_ids or error_trace_ids entry.
type traceSummary struct {
	TraceID   string `json:"trace_id"`
	DurNS     int64  `json:"dur_ns"`
	Status    int    `json:"status"`
	Spans     int    `json:"spans"`
	Unit      string `json:"unit,omitempty"`
	Heuristic string `json:"heuristic,omitempty"`
	Cache     string `json:"cache,omitempty"`
	Error     bool   `json:"error,omitempty"`
}

// report is the JSON envelope: the schema string and its history,
// which keep archived reports diffable, and the loadtest section.
type report struct {
	Schema        string           `json:"schema"`
	SchemaHistory []string         `json:"schema_history"`
	Loadtest      *loadtestSection `json:"loadtest"`
}

// benchSchema and benchSchemaHistory are the report's lineage. The
// name is kept from the days cmd/bench wrote reports of the same
// schema; the history lists those versions too.
const benchSchema = "regalloc-bench/12"

func benchSchemaHistory() []string {
	return []string{
		"regalloc-bench/3: runs, graphs, pcolor, build_improvement_pct",
		"regalloc-bench/4: adds phase_latency + run_latency (p50/p95/p99 over every rep); all /3 fields unchanged",
		"regalloc-bench/5: adds portfolio (one race per figure-7 routine: winner, margin, per-candidate table); all /4 fields unchanged",
		"regalloc-bench/6: adds loadtest (latency percentiles, error rate, cache hit rate from cmd/allocload against a running allocd); all /5 fields unchanged",
		"regalloc-bench/7: adds scale (10^5+-node power-law/mesh coloring per engine and worker count) and loadtest.error_latency in allocload reports; all /6 fields unchanged",
		"regalloc-bench/8: adds ssa (SSA-form chordal allocator over every figure-5 routine at (16,8) and (8,4), with Chaitin/Briggs costs on the same units); all /7 fields unchanged",
		"regalloc-bench/9: adds loadtest.slow_trace_ids/error_trace_ids/traces (trace IDs of the slowest and errored requests, with their flight-recorder records fetched from allocd's /debug/requests); all /8 fields unchanged",
		"regalloc-bench/10: adds irc (iterated register coalescing vs the Briggs conservative pre-pass: surviving copies per figure-5 routine) and irc_eliminated_pct; all /9 fields unchanged",
		"regalloc-bench/11: drops runs[].workers, the workers=4 runs and build_improvement_pct (the graph build is sequential, so they timed the same path twice); all other /10 fields unchanged",
		"regalloc-bench/12: drops reps, runs, graphs, pcolor, phase_latency and run_latency (perfbench times the allocator from raw samples; bench -figure 7 and -figure pcolor print the same comparisons), and loadtest percentiles become exact nearest-rank ones over every request; all other /11 fields unchanged",
	}
}

func newReport(lt *loadtestSection) *report {
	return &report{
		Schema:        benchSchema,
		SchemaHistory: benchSchemaHistory(),
		Loadtest:      lt,
	}
}
