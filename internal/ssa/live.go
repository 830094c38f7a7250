package ssa

import (
	"math"

	"regalloc/internal/bitset"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
)

// Liveness holds phi-aware per-block live sets. The convention is
// Hack's: a phi's destination is live-in to the phi's block (all
// destinations of one block are simultaneously live at its entry),
// a phi's argument is live-out of the corresponding predecessor, and
// neither is live across the edge itself — which is what keeps
// MAXLIVE equal to the interference graph's clique number.
type Liveness struct {
	In  []*bitset.Set
	Out []*bitset.Set
}

// Analysis is the coloring view of an SSA function: liveness, the
// interference graph, the per-class pressure maxima, and the
// definitions in dominance order (a reverse perfect elimination
// order of the chordal graph).
type Analysis struct {
	Live    *Liveness
	G       *ig.Graph
	MaxLive [ir.NumClasses]int
	Order   []ir.Reg
}

// computeLiveness runs the phi-aware backward fixpoint.
func computeLiveness(s *Func) *Liveness {
	f := s.F
	n := len(f.Blocks)
	nr := f.NumRegs()
	lv := &Liveness{In: make([]*bitset.Set, n), Out: make([]*bitset.Set, n)}

	use := make([]*bitset.Set, n)
	def := make([]*bitset.Set, n)
	phiDef := make([]*bitset.Set, n)
	// argsOut[p] lists the phi arguments flowing out of block p into
	// its successor's phis; fixed once the side table is fixed.
	argsOut := make([][]ir.Reg, n)

	var ubuf []ir.Reg
	for _, b := range f.Blocks {
		u := bitset.New(nr)
		d := bitset.New(nr)
		pd := bitset.New(nr)
		for _, ph := range s.Phis[b.ID] {
			pd.Add(int(ph.Dst))
			d.Add(int(ph.Dst))
		}
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
		use[b.ID] = u
		def[b.ID] = d
		phiDef[b.ID] = pd
		lv.In[b.ID] = bitset.New(nr)
		lv.Out[b.ID] = bitset.New(nr)
	}
	for _, b := range f.Blocks {
		for j, p := range b.Preds {
			for _, ph := range s.Phis[b.ID] {
				if a := ph.Args[j]; a != ir.NoReg {
					argsOut[p] = append(argsOut[p], a)
				}
			}
		}
	}

	tmp := bitset.New(nr)
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := lv.Out[b.ID]
			for _, sid := range b.Succs {
				// live across the edge: the successor's live-in minus
				// its phi defs...
				tmp.CopyFrom(lv.In[sid])
				tmp.Subtract(phiDef[sid])
				if out.Union(tmp) {
					changed = true
				}
			}
			// ...plus the phi arguments this block feeds.
			for _, a := range argsOut[b.ID] {
				if !out.Has(int(a)) {
					out.Add(int(a))
					changed = true
				}
			}
			// in = phiDefs ∪ use ∪ (out − def)
			tmp.CopyFrom(out)
			tmp.Subtract(def[b.ID])
			tmp.Union(use[b.ID])
			tmp.Union(phiDef[b.ID])
			if !tmp.Equal(lv.In[b.ID]) {
				lv.In[b.ID].CopyFrom(tmp)
				changed = true
			}
		}
	}
	return lv
}

// Analyze computes liveness, MAXLIVE, and the graph and dominance
// order newAnalysis builds. MAXLIVE is the peak of selectSpills's
// walk run with no budget, which chooses nothing.
func Analyze(s *Func) *Analysis {
	lv := computeLiveness(s)
	_, _, maxLive := selectSpills(s, lv, func(ir.Class) int { return math.MaxInt }, nil)
	return newAnalysis(s, lv, maxLive)
}

// newAnalysis builds the interference graph of s from its liveness lv
// and lays out the definitions in dominance order; maxLive is lv's
// MAXLIVE. Interference edges connect each definition to the values
// live after it — with no move exception: SSA values are distinct,
// and the chordality argument needs the plain def-versus-live rule.
func newAnalysis(s *Func, lv *Liveness, maxLive [ir.NumClasses]int) *Analysis {
	f := s.F
	nr := f.NumRegs()
	classes := make([]ir.Class, nr)
	for r := 0; r < nr; r++ {
		classes[r] = f.RegClass(ir.Reg(r))
	}
	a := &Analysis{Live: lv, G: ig.New(classes), MaxLive: maxLive}
	var ubuf []ir.Reg
	live := bitset.New(nr)
	for _, b := range f.Blocks {
		live.CopyFrom(lv.Out[b.ID])
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if d := in.Def(); d != ir.NoReg {
				a.G.AddLiveEdges(int32(d), live, -1)
				live.Remove(int(d))
			}
			ubuf = in.AppendUses(ubuf[:0])
			for _, u := range ubuf {
				live.Add(int(u))
			}
		}
		// Block entry: the phi destinations are all defined here,
		// simultaneously — they interfere with each other and with
		// everything live into the block body.
		phis := s.Phis[b.ID]
		for i := range phis {
			d := phis[i].Dst
			a.G.AddLiveEdges(int32(d), live, -1)
			for j := i + 1; j < len(phis); j++ {
				a.G.AddEdge(int32(d), int32(phis[j].Dst))
			}
		}
	}
	a.G.Finalize()
	a.Order = domOrder(s)
	return a
}

// domOrder lists every definition in dominance preorder: blocks in
// dominator-tree preorder (children by reverse postorder), and
// within a block the phi destinations first, then instruction
// definitions in program order. The reverse of this order is a
// perfect elimination order of the SSA interference graph.
func domOrder(s *Func) []ir.Reg {
	var order []ir.Reg
	var walk func(b int)
	walk = func(b int) {
		for i := range s.Phis[b] {
			order = append(order, s.Phis[b][i].Dst)
		}
		for i := range s.F.Blocks[b].Instrs {
			if d := s.F.Blocks[b].Instrs[i].Def(); d != ir.NoReg {
				order = append(order, d)
			}
		}
		for _, k := range s.Kids[b] {
			walk(k)
		}
	}
	walk(0)
	return order
}
