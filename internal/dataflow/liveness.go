// Package dataflow implements the bit-vector live-variable analysis
// the allocator depends on, and it is the repository's one liveness
// solver. The interference-graph builder walks it backward through
// each block (LiveAcross). The coalescer reads the live-out sets
// directly to answer its interference queries, and keeps the sets
// current across its merges itself (see package coalesce). It is all
// the renumbering pass needs to build webs (see package liverange).
//
// The SSA allocator (package ssa) solves with it too. Its phis are
// not instructions, so it passes their values as edge values
// (ComputeLivenessEdges): a phi's destination is defined on entry to
// its block, and each argument is read on the way out of the matching
// predecessor.
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
// definitions it solves with, come from one backing array. It is
// ComputeLivenessEdges with no edge values.
func ComputeLiveness(f *ir.Func) *Liveness {
	return ComputeLivenessEdges(f, nil, nil)
}

// ComputeLivenessEdges is ComputeLiveness for a function whose edges
// carry values of their own, as an SSA function's phis do.
// entryDefs[b] lists the registers defined on entry to block b, before
// its first instruction; exitUses[b] lists the registers read on the
// way out of b, after its last instruction. Either may be nil. An
// entry definition is not live into its block, and an exit use is
// live out of its block, so a value read on the way out of a
// predecessor and defined on entry to the successor is live out of
// the one and not into the other.
func ComputeLivenessEdges(f *ir.Func, entryDefs, exitUses [][]ir.Reg) *Liveness {
	n := len(f.Blocks)
	sets := bitset.NewMany(4*n, f.NumRegs())
	lv := &Liveness{In: sets[:n:n], Out: sets[n : 2*n : 2*n]}
	use, def := sets[2*n:3*n], sets[3*n:]

	// The seeds have loops of their own: branching on them inside the
	// scan below slows plain liveness, which every pass solves.
	for b, rs := range entryDefs {
		for _, r := range rs {
			def[b].Add(int(r))
		}
	}
	for b, rs := range exitUses {
		for _, r := range rs {
			lv.Out[b].Add(int(r))
		}
	}

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

// Clone returns an independent copy of lv, its sets carved from one
// backing array as NewLiveness carves them.
func (lv *Liveness) Clone() *Liveness {
	regs := 0
	if len(lv.In) > 0 {
		regs = lv.In[0].Cap()
	}
	c := NewLiveness(len(lv.In), regs)
	for i := range lv.In {
		c.In[i].CopyFrom(lv.In[i])
		c.Out[i].CopyFrom(lv.Out[i])
	}
	return c
}

// LiveAcross walks f's blocks in order, each one backward from its
// last instruction, calling visit with the block, the instruction and
// the live set *after* it (i.e. the set of registers whose current
// values are needed later). The callback must not retain the set. One
// scratch set and one use buffer serve the whole walk, so it allocates
// the same whatever the number of blocks. This is the traversal the
// interference-graph builders and the assignment verifier use.
func (lv *Liveness) LiveAcross(f *ir.Func, visit func(b *ir.Block, i int, in *ir.Instr, liveAfter *bitset.Set)) {
	var live *bitset.Set
	var ubuf []ir.Reg
	for _, b := range f.Blocks {
		out := lv.Out[b.ID]
		if live == nil || live.Cap() != out.Cap() {
			live = out.Copy()
		} else {
			live.CopyFrom(out)
		}
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			visit(b, i, in, live)
			if dst := in.Def(); dst != ir.NoReg {
				live.Remove(int(dst))
			}
			ubuf = in.AppendUses(ubuf[:0])
			for _, r := range ubuf {
				live.Add(int(r))
			}
		}
	}
}
