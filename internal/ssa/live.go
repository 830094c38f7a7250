package ssa

import (
	"math"

	"regalloc/internal/bitset"
	"regalloc/internal/dataflow"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
)

// Analysis is the coloring view of an SSA function: liveness, the
// interference graph, the per-class pressure maxima, and the
// definitions in dominance order (a reverse perfect elimination
// order of the chordal graph). Live follows the convention of
// (*Func).liveness: only its Out sets are read.
type Analysis struct {
	Live    *dataflow.Liveness
	G       *ig.Graph
	MaxLive [ir.NumClasses]int
	Order   []ir.Reg
}

// liveness solves s's liveness with the shared solver, passing the
// phis as edge values. The convention is Hack's: a phi's destination
// is defined on entry to its block (all destinations of one block are
// defined there simultaneously), a phi's argument is read on the way
// out of the corresponding predecessor, and neither is live across
// the edge itself — which is what keeps MAXLIVE equal to the
// interference graph's clique number. So an argument is in its
// predecessor's Out set, and a block's In set holds what is live into
// the block minus its phi destinations, which are defined there.
func (s *Func) liveness() *dataflow.Liveness {
	n := len(s.F.Blocks)
	entryDefs := make([][]ir.Reg, n)
	exitUses := make([][]ir.Reg, n)
	for _, b := range s.F.Blocks {
		phis := s.Phis[b.ID]
		for i := range phis {
			entryDefs[b.ID] = append(entryDefs[b.ID], phis[i].Dst)
		}
		for j, p := range b.Preds {
			for i := range phis {
				if a := phis[i].Args[j]; a != ir.NoReg {
					exitUses[p] = append(exitUses[p], a)
				}
			}
		}
	}
	return dataflow.ComputeLivenessEdges(s.F, entryDefs, exitUses)
}

// Analyze computes liveness, MAXLIVE, and the graph and dominance
// order newAnalysis builds. MAXLIVE is the peak of selectSpills's
// walk run with no budget, which chooses nothing.
func Analyze(s *Func) *Analysis {
	lv := s.liveness()
	_, _, maxLive := selectSpills(s, lv, func(ir.Class) int { return math.MaxInt }, nil)
	return newAnalysis(s, lv, maxLive)
}

// newAnalysis builds the interference graph of s from its liveness lv
// and lays out the definitions in dominance order; maxLive is lv's
// MAXLIVE. Interference edges connect each definition to the values
// live after it — with no move exception: SSA values are distinct,
// and the chordality argument needs the plain def-versus-live rule.
func newAnalysis(s *Func, lv *dataflow.Liveness, maxLive [ir.NumClasses]int) *Analysis {
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
