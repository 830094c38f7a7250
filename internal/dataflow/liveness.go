// Package dataflow implements the bit-vector live-variable analysis
// the allocator depends on: it builds the interference graph, answers
// the coalescer's interference queries, and is all the renumbering
// pass needs to build webs (see package liverange).
package dataflow

import (
	"regalloc/internal/bitset"
	"regalloc/internal/ir"
)

// Liveness holds per-block live-in/live-out sets over virtual
// registers.
type Liveness struct {
	In  []*bitset.Set // indexed by block ID
	Out []*bitset.Set

	// use and def are each block's upward-exposed uses and its
	// definitions; Recompute reuses them along with In and Out.
	use, def []*bitset.Set
}

// ComputeLiveness runs backward iterative live-variable analysis.
// All of its sets come from one backing array.
func ComputeLiveness(f *ir.Func) *Liveness {
	lv := new(Liveness)
	lv.Recompute(f)
	return lv
}

// NewLiveness returns empty sets for the given numbers of blocks and
// registers, all from one backing array, for a caller that fills In
// and Out itself and may later Recompute into them.
func NewLiveness(blocks, regs int) *Liveness {
	n := blocks
	sets := bitset.NewMany(4*n, regs)
	return &Liveness{In: sets[:n:n], Out: sets[n : 2*n : 2*n], use: sets[2*n : 3*n : 3*n], def: sets[3*n:]}
}

// Recompute overwrites lv with the liveness of f. When f has the
// block and register counts lv's sets were sized for — as after a
// rewrite that renames registers without adding any — those sets are
// cleared and reused; otherwise fresh ones are allocated. Either way,
// a set taken from lv before the call is stale after it.
func (lv *Liveness) Recompute(f *ir.Func) {
	n, nr := len(f.Blocks), f.NumRegs()
	if len(lv.In) == n && len(lv.use) == n && (n == 0 || lv.In[0].Cap() == nr && lv.use[0].Cap() == nr) {
		for i := 0; i < n; i++ {
			lv.In[i].Clear()
			lv.Out[i].Clear()
			lv.use[i].Clear()
			lv.def[i].Clear()
		}
	} else {
		*lv = *NewLiveness(n, nr)
	}

	var ubuf []ir.Reg
	for _, b := range f.Blocks {
		u, d := lv.use[b.ID], lv.def[b.ID]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			ubuf = in.AppendUses(ubuf[:0])
			for _, r := range ubuf {
				if !d.Has(int(r)) {
					u.Add(int(r))
				}
			}
			if dst := in.Def(); dst != ir.NoReg {
				d.Add(int(dst))
			}
		}
	}

	// Iterate to fixpoint; processing blocks in reverse order makes
	// the backward problem converge in very few passes for reducible
	// flow graphs.
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := lv.Out[b.ID]
			for _, s := range b.Succs {
				if out.Union(lv.In[s]) {
					changed = true
				}
			}
			// in = use ∪ (out − def)
			if lv.In[b.ID].SetUnionMinus(lv.use[b.ID], out, lv.def[b.ID]) {
				changed = true
			}
		}
	}
}

// LiveAcross walks block b backward from its last instruction,
// calling visit with the live set *after* each instruction (i.e. the
// set of registers whose current values are needed later). The
// callback must not retain the set. This is the traversal the
// interference-graph builder uses.
func (lv *Liveness) LiveAcross(f *ir.Func, b *ir.Block, visit func(i int, in *ir.Instr, liveAfter *bitset.Set)) {
	lv.LiveAcrossRange(f, b, 0, len(b.Instrs), nil, visit)
}

// LiveAcrossRange is LiveAcross restricted to instructions [lo, hi)
// of b. liveAtHi must be the set live after instruction hi-1 (as
// LiveAtCuts computes it); nil means hi is the end of the block and
// the walk starts from the block's live-out. The set is copied, not
// mutated. Splitting a block into ranges at cut points and walking
// each range with its LiveAtCuts set visits exactly the states the
// full LiveAcross walk would — this is what lets the parallel
// interference-graph build cut inside the huge straight-line blocks
// of generated code instead of sharding on block boundaries only.
func (lv *Liveness) LiveAcrossRange(f *ir.Func, b *ir.Block, lo, hi int, liveAtHi *bitset.Set, visit func(i int, in *ir.Instr, liveAfter *bitset.Set)) {
	if liveAtHi == nil {
		liveAtHi = lv.Out[b.ID]
	}
	live := liveAtHi.Copy()
	var ubuf []ir.Reg
	for i := hi - 1; i >= lo; i-- {
		in := &b.Instrs[i]
		visit(i, in, live)
		if dst := in.Def(); dst != ir.NoReg {
			live.Remove(int(dst))
		}
		ubuf = in.AppendUses(ubuf[:0])
		for _, r := range ubuf {
			live.Add(int(r))
		}
	}
}

// LiveAtCuts returns, for each cut index (ascending, each in
// (0, len(b.Instrs))), the set live after instruction cut-1 of b —
// the state the backward LiveAcross walk holds when it is about to
// visit instruction cut-1. One backward sweep serves all cuts; the
// sweep only transfers the live set (no per-live-register work), so
// it is far cheaper than the enumeration walk it seeds.
func (lv *Liveness) LiveAtCuts(f *ir.Func, b *ir.Block, cuts []int) []*bitset.Set {
	out := make([]*bitset.Set, len(cuts))
	live := lv.Out[b.ID].Copy()
	var ubuf []ir.Reg
	next := len(cuts) - 1
	for i := len(b.Instrs) - 1; i >= 0 && next >= 0; i-- {
		if cuts[next] == i+1 {
			out[next] = live.Copy()
			next--
			if next < 0 {
				break
			}
		}
		in := &b.Instrs[i]
		if dst := in.Def(); dst != ir.NoReg {
			live.Remove(int(dst))
		}
		ubuf = in.AppendUses(ubuf[:0])
		for _, r := range ubuf {
			live.Add(int(r))
		}
	}
	return out
}
