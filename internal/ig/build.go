package ig

import (
	"regalloc/internal/bitset"
	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
	"regalloc/internal/machine"
	"regalloc/internal/obs"
)

// BuildWithLiveness constructs the interference graph of f reusing a
// precomputed liveness (which must describe f's current registers —
// any renumbering or rewriting since lv was computed invalidates it).
// This is the allocator's per-pass analysis-cache entry point: the
// Figure 4 cycle computes liveness once per pass and threads it
// through coalescing and graph construction instead of recomputing it
// at every build. A nil tracer disables the build counter.
//
// A register defined at a point interferes with every register (of
// its class) live after that point, except — for a copy instruction —
// the copy's source. That exception is Chaitin's: the move dst/src
// pair should be coalescable, not conflicting, when dst's value is
// just src's.
//
// f's blocks are walked in order, each one backward, and every
// definition is inserted against the registers live after it, minus
// the defined register itself and a move's source (AddLiveEdges). The
// order of that stream fixes the order of every adjacency row, which
// the simplify worklists tie-break on.
//
// The int argument is ignored; it stays only because perfbench's
// probe still passes a worker count.
func BuildWithLiveness(f *ir.Func, lv *dataflow.Liveness, _ int, tr *obs.Tracer) *Graph {
	g := New(regClasses(f, 0))
	counting := tr.Enabled()
	attempts := 0
	lv.LiveAcross(f, func(_ *ir.Block, _ int, in *ir.Instr, liveAfter *bitset.Set) {
		d := in.Def()
		if d == ir.NoReg {
			return
		}
		src := moveSource(in)
		g.AddLiveEdges(int32(d), liveAfter, src)
		if counting {
			attempts += candidates(liveAfter, int32(d), src)
		}
	})
	if counting {
		tr.Counter(obs.PhaseBuild, "ig.edge_inserts", int64(attempts))
	}
	// Compile the CSR now, while the build phase owns the graph: the
	// first consumer query may come from inside a timed phase or a
	// concurrent pcolor worker.
	g.Finalize()
	if buildObserver != nil {
		buildObserver(f, lv, nil, g)
	}
	return g
}

// regClasses returns the classes of f's registers, with room for
// extra more nodes after them.
func regClasses(f *ir.Func, extra int) []ir.Class {
	classes := make([]ir.Class, f.NumRegs(), f.NumRegs()+extra)
	for i := range classes {
		classes[i] = f.RegClass(ir.Reg(i))
	}
	return classes
}

// moveSource returns the source of a copy instruction, which the
// copy's definition does not interfere with, and -1 for any other
// instruction.
func moveSource(in *ir.Instr) int32 {
	if in.IsMove() {
		return int32(in.A)
	}
	return -1
}

// candidates counts the pairs a definition d offers against live
// with skip excepted, cross-class and duplicate pairs included. The
// ig.edge_inserts counter sums it: it counts the candidate pairs a
// build considers, not the edges it adds.
func candidates(live *bitset.Set, d, skip int32) int {
	n := live.Count()
	if live.Has(int(d)) {
		n--
	}
	if skip != d && live.Has(int(skip)) {
		n--
	}
	return n
}

// buildObserver, when non-nil, sees every graph BuildWithLiveness and
// BuildWithMachine return, with the function and liveness it was
// built from; m is nil for a plain build. Tests install it to hold
// every build to the per-pair reference stream.
var buildObserver func(f *ir.Func, lv *dataflow.Liveness, m *machine.Model, g *Graph)
