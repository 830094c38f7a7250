package ig_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"regalloc/internal/dataflow"
	"regalloc/internal/graphgen"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
)

func TestGraphBasics(t *testing.T) {
	g := ig.New([]ir.Class{ir.ClassInt, ir.ClassInt, ir.ClassFloat})
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate
	g.AddEdge(0, 0) // self edge: ignored
	g.AddEdge(0, 2) // cross class: ignored
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if !g.Interfere(0, 1) || !g.Interfere(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.Interfere(0, 2) {
		t.Fatal("cross-class interference recorded")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Fatal("degrees wrong")
	}
}

// TestGraphSymmetryProperty: Interfere(a,b) == Interfere(b,a) and
// degree equals adjacency length on random graphs.
func TestGraphSymmetryProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		g, _ := graphgen.Random(40, 0.25, seed)
		for a := int32(0); a < 40; a++ {
			if g.Degree(a) != len(g.Neighbors(a)) {
				return false
			}
			for _, b := range g.Neighbors(a) {
				if !g.Interfere(b, a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildInterference compiles nothing — it builds a tiny function
// by hand and checks the interference edges are exactly the
// simultaneously-live pairs, with the move-source exception.
func TestBuildInterference(t *testing.T) {
	f := &ir.Func{Name: "B"}
	a := f.NewReg(ir.ClassInt)
	b := f.NewReg(ir.ClassInt)
	c := f.NewReg(ir.ClassInt)
	blk := f.NewBlock()
	blk.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: a, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1},
		{Op: ir.OpConst, Dst: b, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 2},
		{Op: ir.OpAdd, Dst: c, A: a, B: b, C: ir.NoReg},
		{Op: ir.OpAdd, Dst: c, A: c, B: a, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: c, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	g := ig.BuildWithLiveness(f, dataflow.ComputeLiveness(f), 0, nil)
	if !g.Interfere(int32(a), int32(b)) {
		t.Fatal("a and b are simultaneously live; must interfere")
	}
	if !g.Interfere(int32(a), int32(c)) {
		t.Fatal("c is defined while a is live; must interfere")
	}
	if g.Interfere(int32(b), int32(c)) {
		t.Fatal("b dies at the first add; must not interfere with c")
	}
}

// TestMoveSourceException: at "b = move a" with a dead afterward, a
// and b must not interfere (they can share a register — that is the
// whole point of coalescing).
func TestMoveSourceException(t *testing.T) {
	f := &ir.Func{Name: "M"}
	a := f.NewReg(ir.ClassInt)
	b := f.NewReg(ir.ClassInt)
	blk := f.NewBlock()
	blk.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: a, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1},
		{Op: ir.OpMove, Dst: b, A: a, B: ir.NoReg, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: b, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	g := ig.BuildWithLiveness(f, dataflow.ComputeLiveness(f), 0, nil)
	if g.Interfere(int32(a), int32(b)) {
		t.Fatal("move dst/src should not interfere")
	}
}

// TestWorklistSmallestLast verifies the Matula–Beck machinery: on
// any graph, repeatedly removing a minimum-degree node yields a
// smallest-last order — every removed node has remaining degree <=
// the minimum degree of what remains at that step; and the total
// bucket-scan work respects the linear bound.
func TestWorklistSmallestLast(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		g, _ := graphgen.Random(80, 0.15, seed)
		var w ig.Worklist
		w.Init(g, ir.ClassInt)
		prevCheck := func(d int32) bool {
			// every remaining node must have degree >= d... that IS
			// min-degree by construction; verify directly:
			min := int32(1 << 30)
			w.ForEachRemaining(func(a int32) {
				if w.Degree(a) < min {
					min = w.Degree(a)
				}
			})
			return min >= d
		}
		for w.Remaining() > 0 {
			n := w.MinDegreeNode()
			d := w.Degree(n)
			if !prevCheck(d) {
				t.Fatalf("seed %d: node %d with degree %d is not minimum", seed, n, d)
			}
			w.Remove(n)
		}
		// Linear bound: scan work <= |V| + 2|E| plus one pass per
		// node for bucket restarts.
		bound := 2*g.NumEdges() + 2*g.NumNodes()
		if w.ScanSteps > bound {
			t.Fatalf("seed %d: scan steps %d exceed linear bound %d", seed, w.ScanSteps, bound)
		}
	}
}

func TestWorklistDegreeTracking(t *testing.T) {
	// Path 0-1-2: removing the middle node drops both ends to 0.
	g := ig.New(make([]ir.Class, 3))
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	var w ig.Worklist
	w.Init(g, ir.ClassInt)
	if w.Degree(1) != 2 {
		t.Fatalf("deg(1) = %d", w.Degree(1))
	}
	w.Remove(1)
	if w.Degree(0) != 0 || w.Degree(2) != 0 {
		t.Fatal("neighbor degrees not decremented")
	}
	if w.Remaining() != 2 {
		t.Fatalf("remaining = %d", w.Remaining())
	}
	if !w.Removed(1) || w.Removed(0) {
		t.Fatal("removed flags wrong")
	}
}

func TestWorklistClassFilter(t *testing.T) {
	classes := []ir.Class{ir.ClassInt, ir.ClassFloat, ir.ClassInt}
	g := ig.New(classes)
	g.AddEdge(0, 2)
	var w ig.Worklist
	w.Init(g, ir.ClassFloat)
	if w.Remaining() != 1 {
		t.Fatalf("float worklist remaining = %d, want 1", w.Remaining())
	}
	n := w.MinDegreeNode()
	if n != 1 {
		t.Fatalf("min node = %d, want the float node 1", n)
	}
}

// TestBitMatrixAndHashAgree drives both edge representations (the
// dense bit matrix for small graphs, the hash set above the size
// threshold) and checks they answer identically.
func TestBitMatrixAndHashAgree(t *testing.T) {
	// 3000 nodes forces the hash path; a 120-node subgraph mirrored
	// into a small graph uses the matrix path.
	big := ig.New(make([]ir.Class, 3000))
	small := ig.New(make([]ir.Class, 120))
	rng := uint64(99)
	for i := 0; i < 2000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		a := int32(rng % 120)
		b := int32((rng >> 20) % 120)
		big.AddEdge(a, b)
		small.AddEdge(a, b)
	}
	if big.NumEdges() != small.NumEdges() {
		t.Fatalf("edge counts diverge: %d vs %d", big.NumEdges(), small.NumEdges())
	}
	for a := int32(0); a < 120; a++ {
		if big.Degree(a) != small.Degree(a) {
			t.Fatalf("degree(%d) diverges", a)
		}
		for b := int32(0); b < 120; b++ {
			if big.Interfere(a, b) != small.Interfere(a, b) {
				t.Fatalf("Interfere(%d,%d) diverges", a, b)
			}
		}
	}
}

// TestScanWorkBound pins the Matula–Beck linear-work guarantee that
// the resume-at-scanFrom refinement provides (and that a reverted
// "reset scanFrom to zero" guard would break): across a full
// simplification the bucket cells inspected stay within |V| + 2|E|.
// The worklist comment in MinDegreeNode points here.
func TestScanWorkBound(t *testing.T) {
	type input struct {
		name string
		g    *ig.Graph
	}
	var inputs []input
	for seed := uint64(1); seed <= 5; seed++ {
		g, _ := graphgen.Random(200, 0.08, seed)
		inputs = append(inputs, input{fmt.Sprintf("random-%d", seed), g})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		g, _ := graphgen.SVDLike(60, 40, 8, 12, 3, seed)
		inputs = append(inputs, input{fmt.Sprintf("svdlike-%d", seed), g})
	}
	{
		g, _ := graphgen.Cycle(300)
		inputs = append(inputs, input{"cycle-300", g})
	}
	for _, in := range inputs {
		var w ig.Worklist
		w.Init(in.g, ir.ClassInt)
		nodes := w.Remaining()
		for w.Remaining() > 0 {
			w.Remove(w.MinDegreeNode())
		}
		bound := nodes + 2*in.g.NumEdges()
		if w.ScanSteps > bound {
			t.Errorf("%s: ScanSteps = %d exceeds |V|+2|E| = %d",
				in.name, w.ScanSteps, bound)
		}
	}
}
