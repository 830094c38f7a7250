// benchjson implements bench -bench-json: the quality studies
// (portfolio races, the scale tier, the SSA and IRC studies) written
// as one machine-readable JSON document so CI can archive it and
// successive PRs can be diffed. Allocator timing lives in perfbench,
// which reports percentiles from raw samples.
//
// Schema history (repeated in the report's schema_history field so an
// archived file explains itself; every bump up to /10 is additive):
//
//	regalloc-bench/3  runs, graphs, pcolor, build_improvement_pct
//	regalloc-bench/4  adds phase_latency and run_latency: p50/p95/p99
//	                  (plus mean/max/count) over EVERY rep of every
//	                  figure-7 allocation, computed from the obs
//	                  registry's fixed-bucket histograms — the "runs"
//	                  entries remain best-of-reps and are unchanged
//	regalloc-bench/5  adds portfolio: one race per figure-7 routine
//	                  over the default strategy set (winner, win
//	                  margin, and the per-candidate outcome table);
//	                  all /4 fields unchanged
//	regalloc-bench/6  adds loadtest: service-level latency
//	                  percentiles, error rate, and cache hit rate,
//	                  emitted by cmd/allocload against a running
//	                  allocd (cmd/bench's own reports carry every /5
//	                  field and omit the section); all /5 fields
//	                  unchanged
//	regalloc-bench/7  adds scale (the 10^5+-node tier: power-law and
//	                  mesh topologies under the speculative and
//	                  Jones–Plassmann engines, per worker count) and,
//	                  in allocload reports, loadtest.error_latency
//	                  (transport-failure latency, tracked apart from
//	                  the SLO-facing success histogram); all /6 fields
//	                  unchanged
//	regalloc-bench/8  adds ssa (the SSA-form chordal allocator over
//	                  every figure-5 routine at (16,8) and (8,4):
//	                  construction shape, post-spill MAXLIVE, spill
//	                  totals, and the Chaitin/Briggs costs on the same
//	                  unit); all /7 fields unchanged
//	regalloc-bench/9  adds, in allocload reports, the trace linkage:
//	                  loadtest.slow_trace_ids and error_trace_ids (the
//	                  trace IDs of the slowest and errored requests,
//	                  the lookup keys into allocd's flight recorder,
//	                  access log, and /metrics exemplars) and
//	                  loadtest.traces (their flight-recorder records,
//	                  fetched back after the run); all /8 fields
//	                  unchanged
//	regalloc-bench/10 adds irc (iterated register coalescing vs the
//	                  Briggs conservative pre-pass: surviving register
//	                  copies per figure-5 routine, with both spill
//	                  costs) and irc_eliminated_pct (the move-heavy
//	                  aggregate); all /9 fields unchanged
//	regalloc-bench/11 drops the runs' workers field, their workers=4
//	                  rows and build_improvement_pct: the graph build
//	                  is sequential, so those rows timed the same path
//	                  twice; all other /10 fields unchanged
//	regalloc-bench/12 drops reps, runs, graphs, pcolor, phase_latency
//	                  and run_latency: perfbench times the allocator
//	                  from raw samples, and bench -figure 7 and -figure
//	                  pcolor print the same comparisons. allocload's
//	                  loadtest percentiles become exact nearest-rank
//	                  ones over every request (same fields); all
//	                  other /11 fields unchanged
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"regalloc"
	"regalloc/internal/experiments"
	"regalloc/internal/fsutil"
	"regalloc/internal/workloads"
)

// benchPortfolioCandidate is one strategy's outcome in one routine's
// portfolio race.
type benchPortfolioCandidate struct {
	Name      string `json:"name"`
	Status    string `json:"status"`
	Spills    int    `json:"spills"`
	CostMilli int64  `json:"cost_milli"`
	NS        int64  `json:"ns"`
}

// benchPortfolio is one routine's race over the default strategy
// portfolio. New in regalloc-bench/5.
type benchPortfolio struct {
	Routine     string                    `json:"routine"`
	Mode        string                    `json:"mode"`
	Winner      string                    `json:"winner"`
	Spills      int                       `json:"spills"`
	CostMilli   int64                     `json:"cost_milli"`
	MarginMilli int64                     `json:"win_margin_milli"`
	Candidates  []benchPortfolioCandidate `json:"candidates"`
}

type benchReport struct {
	Schema        string   `json:"schema"`
	SchemaHistory []string `json:"schema_history"`
	GoMaxProcs    int      `json:"gomaxprocs"`
	NumCPU        int      `json:"num_cpu"`
	// Portfolio races the default strategy set once per figure-7
	// routine: deterministic winner by (milli spill cost, spills,
	// index). New in regalloc-bench/5.
	Portfolio []benchPortfolio `json:"portfolio"`
	// Scale is the 10^5-node tier: CSR-backed graphs at the size
	// where per-node adjacency vectors used to dominate build time.
	// New in regalloc-bench/7.
	Scale []experiments.ScaleRow `json:"scale"`
	// SSA is the SSA-form chordal allocator study: every figure-5
	// routine at (16,8) and (8,4), with the Figure 4 allocators'
	// costs on the same units for comparison. The spill and cost
	// columns are deterministic, so they diff cleanly across PRs. New
	// in regalloc-bench/8.
	SSA []experiments.SSARow `json:"ssa"`
	// IRC is the iterated-register-coalescing study: per-routine
	// surviving copies under the Briggs conservative pre-pass versus
	// IRC's retested worklist, with both spill costs, which are equal
	// by construction. New in regalloc-bench/10.
	IRC []experiments.IRCRow `json:"irc"`
	// IRCEliminatedPct is the share of copies IRC removed from the
	// move-heavy units (>= 4 surviving the pre-pass), in percent.
	IRCEliminatedPct float64 `json:"irc_eliminated_pct"`
	Note             string  `json:"note"`
}

// figure7Routines is the paper's four large routines, the workloads
// whose Build phase dominates allocation time.
func figure7Routines() (map[string]*regalloc.Program, []struct{ program, routine string }, error) {
	wanted := []struct{ program, routine string }{
		{"CEDETA", "DQRDC"},
		{"SVD", "SVD"},
		{"CEDETA", "GRADNT"},
		{"CEDETA", "HSSIAN"},
	}
	compiled := make(map[string]*regalloc.Program)
	for _, w := range workloads.All() {
		if w.Program == "CEDETA" || w.Program == "SVD" {
			p, err := regalloc.Compile(w.Source)
			if err != nil {
				return nil, nil, fmt.Errorf("compile %s: %w", w.Program, err)
			}
			compiled[w.Program] = p
		}
	}
	return compiled, wanted, nil
}

// runBenchJSON writes the benchmark report to path and returns any
// error (the caller exits nonzero on failure, so a CI job that
// uploads the artifact fails loudly instead of archiving nothing).
func runBenchJSON(path string) error {
	compiled, wanted, err := figure7Routines()
	if err != nil {
		return err
	}
	report := &benchReport{
		Schema: "regalloc-bench/12",
		SchemaHistory: []string{
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
		},
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Note: "quality studies only; the ns columns are single-run wall clock, " +
			"and perfbench is the allocator's timing benchmark",
	}

	// Portfolio races over the figure-7 routines (new in /5): the
	// winner is deterministic — (milli spill cost, spill count,
	// candidate index) — so the winner/cost columns diff cleanly
	// across PRs; only the ns columns carry machine noise.
	cands := regalloc.DefaultPortfolio(regalloc.DefaultOptions())
	for _, s := range wanted {
		pr, err := compiled[s.program].AllocatePortfolio(context.Background(), s.routine, cands, regalloc.PortfolioConfig{})
		if err != nil {
			return fmt.Errorf("portfolio %s: %w", s.routine, err)
		}
		win := pr.Outcomes[pr.Winner]
		bp := benchPortfolio{
			Routine:     s.routine,
			Mode:        pr.Mode.String(),
			Winner:      win.Name,
			Spills:      win.Spills,
			CostMilli:   win.SpillCostMilli,
			MarginMilli: pr.WinMarginMilli,
		}
		for _, o := range pr.Outcomes {
			bp.Candidates = append(bp.Candidates, benchPortfolioCandidate{
				Name:      o.Name,
				Status:    o.Status.String(),
				Spills:    o.Spills,
				CostMilli: o.SpillCostMilli,
				NS:        o.Duration.Nanoseconds(),
			})
		}
		report.Portfolio = append(report.Portfolio, bp)
	}

	// Scale tier (new in /7): 10^5-node power-law and mesh graphs
	// under both parallel engines. The study sizes itself; CI's
	// scale-smoke job runs the same code standalone with a wall-clock
	// budget.
	scale, err := experiments.ScaleStudy(100_000)
	if err != nil {
		return err
	}
	report.Scale = scale.Rows

	// SSA-form chordal allocator study (new in /8). Deterministic
	// like the portfolio section: spill and cost columns diff cleanly
	// across PRs.
	ssaStudy, err := experiments.SSAStudy()
	if err != nil {
		return err
	}
	report.SSA = ssaStudy.Rows

	// Iterated-register-coalescing study (new in /10). Deterministic:
	// move and cost columns diff cleanly across PRs.
	ircStudy, err := experiments.IRCStudy()
	if err != nil {
		return err
	}
	report.IRC = ircStudy.Rows
	report.IRCEliminatedPct = ircStudy.EliminatedPct()

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	// A dropped fsync/close error here is exactly the
	// silent-truncation bug the -trace path had: the OS may only
	// report a full disk at sync or close.
	return fsutil.SyncClose(f)
}
