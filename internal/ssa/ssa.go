// Package ssa implements the SSA-form register allocator: the
// interference graph of a strict SSA program is chordal, so coloring
// in dominance order is optimal and linear-time, and spilling
// decouples into a separate phase that runs *before* coloring
// (Bouchez, Darte & Rastello, "On the Complexity of Spill Everywhere
// under SSA Form"; Hack's SSA register allocation).
//
// The pipeline is:
//
//  1. Construct: prune unreachable blocks, give upward-exposed
//     registers an explicit zero definition in the entry block (the
//     machine's register files are zero-initialized, so this is
//     semantics-preserving strictness repair), split critical edges,
//     insert pruned phis on the iterated dominance frontier, and
//     rename every definition to a fresh SSA value along the
//     dominator tree. One liveness solve serves both the zero
//     definitions and phi placement. Phis live in a side table — the
//     IR itself has no phi opcode, so Assemble and the VM never see
//     one.
//  2. PreSpill: while MAXLIVE (the per-class register pressure
//     maximum, which equals the interference graph's clique number)
//     exceeds K, spill the cheapest live-through values at every
//     over-pressure point, everywhere. A round only counts pressure,
//     in one walk over one liveness solve. The solver is the one every
//     family uses (dataflow.ComputeLivenessEdges); the phis go in as
//     its edge values, each destination defined on entry to its block
//     and each argument read on the way out of its predecessor, so an
//     argument is live out of the predecessor and a destination is not
//     live into its block. This package writes only
//     the code on phi edges; the rest is the Figure 4 cycle's own
//     rewrite, spill.InsertCode. After this phase coloring cannot
//     fail; the graph is built once, from the last round's liveness.
//  3. Color: color's select phase (color.SelectInto) replaying the
//     definitions in dominance order — a reverse perfect elimination
//     order of the chordal interference graph — so the lowest free
//     color uses exactly MAXLIVE colors per class.
//  4. Lower: replace each phi by parallel copies at the end of its
//     predecessors, sequentialized by physical location; copy cycles
//     break through a scratch register on a free color when one
//     exists, else through a spill-slot bounce.
//
// The result is ordinary IR plus a total coloring, consumed by the
// same Assemble/VM/VerifyAssignment stack as every other heuristic.
package ssa

import (
	"context"
	"fmt"
	"time"

	"regalloc/internal/cfg"
	"regalloc/internal/color"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
	"regalloc/internal/spill"
)

// Phi is one phi-function: Dst receives Args[j] when control enters
// the block from its j-th predecessor (Args parallels Block.Preds).
// Var records the pre-SSA register the phi was inserted for.
type Phi struct {
	Var  ir.Reg
	Dst  ir.Reg
	Args []ir.Reg
}

// Func is an IR function in SSA form: the rewritten ir.Func plus the
// phi side table and the dominator-tree shape renaming used.
type Func struct {
	F    *ir.Func
	Info *cfg.Info
	// Phis[b] lists the phis at the head of block b.
	Phis [][]Phi
	// Kids[b] lists b's dominator-tree children in reverse-postorder
	// position, the deterministic walk order used for renaming, the
	// dominance definition order, and therefore the coloring.
	Kids []([]int)

	// Construction statistics.
	ZeroDefs   int // zero-init defs added for upward-exposed registers
	SplitEdges int // critical edges split
	CopyProps  int // moves deleted by renaming-time copy propagation
}

// NumPhis counts the phis across all blocks.
func (s *Func) NumPhis() int {
	n := 0
	for _, ps := range s.Phis {
		n += len(ps)
	}
	return n
}

// RoundStats records one pre-spill round that spilled.
type RoundStats struct {
	Spilled   int     // values sent to memory this round
	SpillCost float64 // summed estimated cost of those values
	Loads     int
	Stores    int
}

// Stats summarizes one SSA allocation.
type Stats struct {
	ZeroDefs   int
	SplitEdges int
	CopyProps  int // moves deleted by renaming-time copy propagation
	Phis       int // phis present when coloring ran
	LiveRanges int // SSA values (registers) in the colored function
	Edges      int // interference edges

	// MaxLive after pre-spilling: the exact per-class color count
	// the greedy colorer uses.
	MaxLiveInt   int
	MaxLiveFloat int

	Rounds []RoundStats // pre-spill rounds, in order

	// Lowering.
	Copies      int // parallel-copy moves emitted
	CycleBreaks int // cycles broken via a scratch register
	SlotBounces int // cycles broken via a spill-slot store/load

	// Build is construction plus the graph build after pre-spilling.
	Build, Spill, Color, Lower time.Duration
}

// TotalSpilled sums values spilled across pre-spill rounds.
func (st *Stats) TotalSpilled() int {
	n := 0
	for _, r := range st.Rounds {
		n += r.Spilled
	}
	return n
}

// TotalSpillCost sums estimated spill costs across rounds.
func (st *Stats) TotalSpillCost() float64 {
	c := 0.0
	for _, r := range st.Rounds {
		c += r.SpillCost
	}
	return c
}

// Result is a finished SSA allocation: phi-free IR plus a coloring
// covering every defined register.
type Result struct {
	Func   *ir.Func
	Colors []int16
	Stats  Stats
}

// maxPreSpillRounds bounds the pre-spill iteration, mirroring the
// Figure 4 cycle's MaxPasses backstop.
const maxPreSpillRounds = 64

// Allocate runs the full SSA pipeline on f, which it rewrites in
// place (pass a clone to keep the original). k gives the per-class
// color budgets, params the spill-cost estimator settings, and tr an
// optional tracer (a nil tracer still times the phases). The context
// is checked between pre-spill rounds. Every phase's span ends before
// its error is checked, so a failed run leaves no span open.
func Allocate(ctx context.Context, f *ir.Func, k color.K, params spill.CostParams, tr *obs.Tracer) (*Result, error) {
	res := &Result{Func: f}
	t0 := tr.Begin(obs.PhaseBuild)
	s, err := Construct(f)
	res.Stats.Build = tr.End(obs.PhaseBuild, t0)
	if err != nil {
		return nil, err
	}
	res.Stats.ZeroDefs = s.ZeroDefs
	res.Stats.SplitEdges = s.SplitEdges
	res.Stats.CopyProps = s.CopyProps

	t0 = tr.Begin(obs.PhaseSpill)
	lv, maxLive, rounds, err := PreSpill(ctx, s, k, params)
	res.Stats.Spill = tr.End(obs.PhaseSpill, t0)
	if err != nil {
		return nil, err
	}
	res.Stats.Rounds = rounds

	t0 = tr.Begin(obs.PhaseBuild)
	a := newAnalysis(s, lv, maxLive)
	res.Stats.Build += tr.End(obs.PhaseBuild, t0)
	res.Stats.Phis = s.NumPhis()
	res.Stats.LiveRanges = f.NumRegs()
	res.Stats.Edges = a.G.NumEdges()
	res.Stats.MaxLiveInt = a.MaxLive[ir.ClassInt]
	res.Stats.MaxLiveFloat = a.MaxLive[ir.ClassFloat]

	t0 = tr.Begin(obs.PhaseColor)
	colors, err := Color(s, a, k)
	res.Stats.Color = tr.End(obs.PhaseColor, t0)
	if err != nil {
		return nil, err
	}

	// Lowering is its own span: it shares the Color phase bucket (the
	// registry's PhaseNS[Color] stays Color+Lower, matching what the
	// Figure 4 mapping reports as the pass's Color time) but a trace
	// reader sees out-of-SSA copy insertion separately from the greedy
	// coloring walk.
	t0 = tr.Begin(obs.PhaseColor)
	colors, low, err := Lower(s, a, colors, k)
	res.Stats.Lower = tr.End(obs.PhaseColor, t0)
	if err != nil {
		return nil, err
	}
	res.Stats.Copies = low.Copies
	res.Stats.CycleBreaks = low.CycleBreaks
	res.Stats.SlotBounces = low.SlotBounces
	res.Colors = colors

	if tr.Enabled() {
		tr.Counter(obs.PhaseBuild, "ssa.phis", int64(res.Stats.Phis))
		tr.Counter(obs.PhaseBuild, "ssa.zero_defs", int64(res.Stats.ZeroDefs))
		tr.Counter(obs.PhaseBuild, "ssa.split_edges", int64(res.Stats.SplitEdges))
		tr.Counter(obs.PhaseBuild, "ssa.copy_props", int64(res.Stats.CopyProps))
		tr.Counter(obs.PhaseSpill, "ssa.prespill_rounds", int64(len(res.Stats.Rounds)))
		tr.Counter(obs.PhaseColor, "ssa.maxlive_int", int64(res.Stats.MaxLiveInt))
		tr.Counter(obs.PhaseColor, "ssa.maxlive_float", int64(res.Stats.MaxLiveFloat))
		tr.Counter(obs.PhaseColor, "ssa.copies", int64(res.Stats.Copies))
		tr.Counter(obs.PhaseColor, "ssa.cycle_breaks", int64(res.Stats.CycleBreaks))
		tr.Counter(obs.PhaseColor, "ssa.slot_bounces", int64(res.Stats.SlotBounces))
	}
	return res, nil
}

// errUndefined reports a use the renamer found no reaching
// definition for — impossible in pruned SSA over a zero-init-repaired
// function, so it indicates a construction bug.
func errUndefined(f *ir.Func, r ir.Reg, where string) error {
	return fmt.Errorf("ssa: %s: no reaching definition for v%d at %s", f.Name, r, where)
}
