package ig

import (
	"fmt"
	"reflect"

	"regalloc/internal/bitset"
	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
	"regalloc/internal/machine"
)

// The per-pair reference streams: the order in which the builders
// offered every candidate edge to AddEdge, one pair at a time, before
// AddLiveEdges took definitions a word at a time. Replayed into
// legacyAdj they give the adjacency rows, in order, that every build
// must reproduce.

// enumerate walks f's blocks in order, each one backward, and reports
// every candidate interference (def × live-after, minus the defined
// register itself and a move's source) to emit, duplicates and
// cross-class pairs included: BuildWithLiveness's stream.
func enumerate(f *ir.Func, lv *dataflow.Liveness, emit func(d, l int32)) {
	lv.LiveAcross(f, func(_ *ir.Block, _ int, in *ir.Instr, liveAfter *bitset.Set) {
		d := in.Def()
		if d == ir.NoReg {
			return
		}
		moveSrc := ir.NoReg
		if in.IsMove() {
			moveSrc = in.A
		}
		liveAfter.ForEach(func(l int) {
			if ir.Reg(l) != d && ir.Reg(l) != moveSrc {
				emit(int32(d), int32(l))
			}
		})
	})
}

// enumerateMachine is BuildWithMachine's stream: the precolored
// cliques, then one backward walk per block in which each register
// live after an instruction takes its definition edge and, at a call,
// its clobber edges right after it.
func enumerateMachine(f *ir.Func, lv *dataflow.Liveness, m *machine.Model, emit func(a, b int32)) {
	n := int32(f.NumRegs())
	preNode := func(c ir.Class, r int16) int32 { return n + m.PreOffset(c) + int32(r) }
	for _, c := range []ir.Class{ir.ClassInt, ir.ClassFloat} {
		for a := int16(0); int(a) < m.NumRegs[c]; a++ {
			for b := a + 1; int(b) < m.NumRegs[c]; b++ {
				emit(preNode(c, a), preNode(c, b))
			}
		}
	}
	lv.LiveAcross(f, func(_ *ir.Block, _ int, in *ir.Instr, liveAfter *bitset.Set) {
		d := in.Def()
		moveSrc := ir.NoReg
		if in.IsMove() {
			moveSrc = in.A
		}
		isCall := in.Op == ir.OpCall
		liveAfter.ForEach(func(l int) {
			lr := ir.Reg(l)
			if d != ir.NoReg && lr != d && lr != moveSrc {
				emit(int32(d), int32(l))
			}
			if isCall && lr != d {
				c := f.RegClass(lr)
				for r := int16(0); int(r) < m.CallerSaved[c]; r++ {
					emit(int32(l), preNode(c, r))
				}
			}
		})
	})
}

// matchesReference replays the reference stream of f and lv (the
// machine stream when m is not nil) into legacyAdj and reports the
// first way g differs from it: edge count, any row or degree, or any
// Interfere answer.
func matchesReference(f *ir.Func, lv *dataflow.Liveness, m *machine.Model, g *Graph) error {
	classes := make([]ir.Class, g.NumNodes())
	for a := range classes {
		classes[a] = g.Class(int32(a))
	}
	l := newLegacyAdj(classes)
	if m == nil {
		enumerate(f, lv, l.addEdge)
	} else {
		enumerateMachine(f, lv, m, l.addEdge)
	}
	return l.diff(g)
}

// diff reports the first way g differs from the legacy model: edge
// count, a row or a degree, or an Interfere answer. Interfere is asked
// of every edge and, on the bit matrix, of every other pair too; the
// flat set's keys are exactly the edges AddEdge counted, so on it the
// edge count already rules out a key too many.
func (l *legacyAdj) diff(g *Graph) error {
	if g.NumNodes() != len(l.adj) {
		return fmt.Errorf("%d nodes, legacy %d", g.NumNodes(), len(l.adj))
	}
	if g.NumEdges() != len(l.seen) {
		return fmt.Errorf("edges %d != legacy %d", g.NumEdges(), len(l.seen))
	}
	mark := make([]bool, len(l.adj))
	for a := range l.adj {
		gn := g.Neighbors(int32(a))
		ln := l.adj[a]
		if (len(gn) != 0 || len(ln) != 0) && !reflect.DeepEqual(gn, ln) {
			return fmt.Errorf("node %d adjacency differs:\n csr    %v\n legacy %v", a, gn, ln)
		}
		if g.Degree(int32(a)) != len(ln) {
			return fmt.Errorf("node %d degree %d != legacy %d", a, g.Degree(int32(a)), len(ln))
		}
		if g.rows == nil {
			for _, b := range ln {
				if !g.Interfere(int32(a), b) {
					return fmt.Errorf("Interfere(%d, %d) = false on an edge", a, b)
				}
			}
			continue
		}
		for _, b := range ln {
			mark[b] = true
		}
		for b := range mark {
			if g.Interfere(int32(a), int32(b)) != mark[b] {
				return fmt.Errorf("Interfere(%d, %d) = %v, legacy %v", a, b, !mark[b], mark[b])
			}
		}
		for _, b := range ln {
			mark[b] = false
		}
	}
	return nil
}
