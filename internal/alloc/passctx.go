package alloc

import (
	"regalloc/internal/cfg"
	"regalloc/internal/dataflow"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/liverange"
	"regalloc/internal/obs"
)

// passCtx is the analysis a Figure 4 pass works from. One trip around
// the cycle needs live-variable analysis (renumbering, coalescing,
// graph build) and CFG/loop analysis (spill-cost depths, split
// insertion). A fresh start computes liveness once, before
// renumbering, and cfg.Analyze once. From then on nothing solves
// liveness from scratch: the renumbering renames the sets it was given
// to the new webs, the coalescer keeps them current across its merges
// in either mode, and spill.CarryLiveness brings them past plain and
// remat spill code, so the pass after any spill but a split starts
// from the last pass's analysis and runs none. The run counts are
// published as build-phase counters so tests, and trace consumers, can
// hold the allocator to this contract.
type passCtx struct {
	lv   *dataflow.Liveness
	info *cfg.Info

	// mayMerge reports whether an aggressive coalescing round on work
	// as it stands might merge: true on a fresh start, false once a
	// round has run to its fixpoint, and true again once a
	// renumbering splits a register.
	mayMerge bool

	livenessRuns int
	cfgRuns      int
}

// newPassCtx renumbers work into webs and analyzes it once: the
// liveness computed to renumber, renamed to the webs, serves the
// pass's coalescing and graph builds, and CFG/loop nesting serves its
// cost estimates and (in split mode) its spill insertion. Block depths
// are stamped as a side effect of cfg.Analyze and stay valid until a
// spill inserter adds a block.
func newPassCtx(work *ir.Func) *passCtx {
	lv, _ := liverange.RenumberWithLiveness(work, dataflow.ComputeLiveness(work))
	return &passCtx{lv: lv, info: cfg.Analyze(work), mayMerge: true, livenessRuns: 1, cfgRuns: 1}
}

// carry starts the pass after a plain or remat spill from the last
// pass's analysis. spill.CarryLiveness has made pc.lv the liveness of
// work, and spill.InsertCodeRemat adds no block, so pc.info and the
// stamped depths still hold. carry renumbers work from pc.lv and runs
// no analysis.
func (pc *passCtx) carry(work *ir.Func) {
	var before *ir.Func
	if carryObserver != nil {
		before = work.Clone()
	}
	pc.renumber(work)
	pc.livenessRuns, pc.cfgRuns = 0, 0
	if carryObserver != nil {
		carryObserver(before, work, pc.lv, pc.info)
	}
}

// renumber renumbers work from pc.lv, which must be its liveness. A
// register that splits may have a part that no longer interferes with
// a copy's other end, so a round could merge again.
func (pc *passCtx) renumber(work *ir.Func) {
	lv, split := liverange.RenumberWithLiveness(work, pc.lv)
	pc.lv = lv
	pc.mayMerge = pc.mayMerge || split
}

// emitCounters publishes the pass's analysis-run totals: 1 each on a
// fresh start, with or without coalescing, aggressive or
// conservative, and 0 each on a carried one.
func (pc *passCtx) emitCounters(tr *obs.Tracer) {
	if !tr.Enabled() {
		return
	}
	tr.Counter(obs.PhaseBuild, "analysis.liveness_runs", int64(pc.livenessRuns))
	tr.Counter(obs.PhaseBuild, "analysis.cfg_runs", int64(pc.cfgRuns))
}

// carryObserver, when non-nil, sees every carried pass start: a copy
// of work before its renumbering, work after it, and the liveness and
// CFG analysis the pass carries. irc's worklist round is one too; it
// renumbers nothing, so its before is a copy of its after. Tests
// install it to compare the carried start with a fresh one.
var carryObserver func(before, after *ir.Func, lv *dataflow.Liveness, info *cfg.Info)

// ircStartObserver, when non-nil, sees the function, graph and costs
// every irc worklist round starts from. Tests install it to compare
// them with a fresh analysis of the function.
var ircStartObserver func(work *ir.Func, mg *ig.MachineGraph, costs []float64)
