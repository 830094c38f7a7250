package alloc

import (
	"regalloc/internal/cfg"
	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
	"regalloc/internal/liverange"
	"regalloc/internal/obs"
)

// passCtx is the per-pass analysis cache. One trip around the Figure
// 4 cycle needs live-variable analysis (renumbering, coalescing,
// graph build) and CFG/loop analysis (spill-cost depths, split
// insertion). passCtx computes liveness once when the pass starts,
// before renumbering, and from then on never computes it from
// scratch except after a coalescing round that merged moves: the
// renumbering renames the sets it was given to the new webs, the
// coalescer recomputes into the same sets, and the post-coalesce
// renumbering renames the coalescer's final sets. cfg.Analyze runs
// once per pass, split mode included. The run counts are published
// as build-phase counters so tests — and trace consumers — can hold
// the allocator to this contract.
type passCtx struct {
	lv   *dataflow.Liveness
	info *cfg.Info

	livenessRuns int
	cfgRuns      int
}

// newPassCtx renumbers work into webs and analyzes it once: the
// liveness computed to renumber, renamed to the webs, serves the
// pass's coalescing and graph builds, and CFG/loop nesting serves its
// cost estimates and (in split mode) its spill insertion. Block depths
// are stamped as a side effect of cfg.Analyze and stay valid for the
// whole pass: nothing before spill insertion adds or removes blocks.
func newPassCtx(work *ir.Func) *passCtx {
	pc := &passCtx{lv: liverange.RenumberWithLiveness(work, dataflow.ComputeLiveness(work))}
	pc.livenessRuns++
	pc.info = cfg.Analyze(work)
	pc.cfgRuns++
	return pc
}

// emitCounters publishes the pass's analysis-run totals. Without
// coalescing both must be exactly 1; coalescing adds one liveness run
// per merging round, so a coalescing pass runs liveness once per
// coalesce round.
func (pc *passCtx) emitCounters(tr *obs.Tracer) {
	if !tr.Enabled() {
		return
	}
	tr.Counter(obs.PhaseBuild, "analysis.liveness_runs", int64(pc.livenessRuns))
	tr.Counter(obs.PhaseBuild, "analysis.cfg_runs", int64(pc.cfgRuns))
}
