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
	// definitions as Recompute last found them; Recompute reuses them
	// along with In and Out. Nothing else reads them, so a caller that
	// keeps In and Out current itself may leave them stale.
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
	live := lv.Out[b.ID].Copy()
	var ubuf []ir.Reg
	for i := len(b.Instrs) - 1; i >= 0; i-- {
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
