// Package dataflow implements the bit-vector live-variable analysis
// the allocator depends on. The interference-graph builder walks it
// backward through each block (LiveAcross). The coalescer reads the
// live-out sets directly to answer its interference queries, and keeps
// the sets current across its merges itself (see package coalesce). It
// is all the renumbering pass needs to build webs (see package
// liverange).
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
}

// ComputeLiveness runs backward iterative live-variable analysis.
// All of its sets, and each block's upward-exposed uses and
// definitions it solves with, come from one backing array.
func ComputeLiveness(f *ir.Func) *Liveness {
	n := len(f.Blocks)
	sets := bitset.NewMany(4*n, f.NumRegs())
	lv := &Liveness{In: sets[:n:n], Out: sets[n : 2*n : 2*n]}
	use, def := sets[2*n:3*n], sets[3*n:]

	var ubuf []ir.Reg
	for _, b := range f.Blocks {
		u, d := use[b.ID], def[b.ID]
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
			if lv.In[b.ID].SetUnionMinus(use[b.ID], out, def[b.ID]) {
				changed = true
			}
		}
	}
	return lv
}

// NewLiveness returns empty sets for the given numbers of blocks and
// registers, all from one backing array, for a caller that fills In
// and Out itself.
func NewLiveness(blocks, regs int) *Liveness {
	n := blocks
	sets := bitset.NewMany(2*n, regs)
	return &Liveness{In: sets[:n:n], Out: sets[n:]}
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
