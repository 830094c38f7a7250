package dataflow_test

import (
	"testing"

	"regalloc/internal/bitset"
	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
)

// straightLine builds: b0: a=1; b=a+a; ret b
func straightLine() (*ir.Func, ir.Reg, ir.Reg) {
	f := &ir.Func{Name: "T"}
	a := f.NewReg(ir.ClassInt)
	b := f.NewReg(ir.ClassInt)
	blk := f.NewBlock()
	blk.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: a, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1},
		{Op: ir.OpAdd, Dst: b, A: a, B: a, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: b, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	return f, a, b
}

func TestLivenessStraightLine(t *testing.T) {
	f, a, b := straightLine()
	lv := dataflow.ComputeLiveness(f)
	if !lv.In[0].Empty() {
		t.Fatalf("live-in of entry should be empty, got %v", lv.In[0])
	}
	if !lv.Out[0].Empty() {
		t.Fatalf("live-out of exit block should be empty")
	}
	_ = a
	_ = b
}

// loopFunc builds a loop where x is defined before the loop and used
// inside it, so x is live around the back edge.
func loopFunc() (*ir.Func, ir.Reg, ir.Reg) {
	f := &ir.Func{Name: "L"}
	x := f.NewReg(ir.ClassInt)
	i := f.NewReg(ir.ClassInt)
	b0 := f.NewBlock() // x=10; i=0; br b1
	b1 := f.NewBlock() // i = i+x; brif i lt x -> b1, b2
	b2 := f.NewBlock() // ret
	b0.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: x, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 10},
		{Op: ir.OpConst, Dst: i, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 0},
		{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg},
	}
	b0.Succs = []int{1}
	b1.Instrs = []ir.Instr{
		{Op: ir.OpAdd, Dst: i, A: i, B: x, C: ir.NoReg},
		{Op: ir.OpBrIf, Dst: ir.NoReg, A: i, B: x, C: ir.NoReg, Cmp: ir.CmpLT},
	}
	b1.Succs = []int{1, 2}
	b2.Instrs = []ir.Instr{
		{Op: ir.OpRet, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	return f, x, i
}

func TestLivenessAroundLoop(t *testing.T) {
	f, x, i := loopFunc()
	lv := dataflow.ComputeLiveness(f)
	if !lv.In[1].Has(int(x)) || !lv.In[1].Has(int(i)) {
		t.Fatalf("x and i must be live into the loop header: %v", lv.In[1])
	}
	if !lv.Out[1].Has(int(x)) {
		t.Fatal("x must be live out of the latch (used next iteration)")
	}
	if lv.Out[2].Has(int(x)) || lv.Out[2].Has(int(i)) {
		t.Fatal("nothing is live out of the exit")
	}
}

// TestLiveAcross checks the backward per-instruction traversal: the
// set passed at each instruction is what is live *after* it.
func TestLiveAcross(t *testing.T) {
	f, a, b := straightLine()
	lv := dataflow.ComputeLiveness(f)
	lv.LiveAcross(f, func(_ *ir.Block, i int, in *ir.Instr, live *bitset.Set) {
		switch i {
		case 0: // after "a = 1": a is live (used by the add)
			if !live.Has(int(a)) || live.Has(int(b)) {
				t.Fatalf("after const: %v", live)
			}
		case 1: // after "b = a+a": only b lives (ret uses it)
			if live.Has(int(a)) || !live.Has(int(b)) {
				t.Fatalf("after add: %v", live)
			}
		case 2: // after ret: nothing
			if !live.Empty() {
				t.Fatalf("after ret: %v", live)
			}
		}
	})
}

// swapLoop is a loop whose header phis swap two values, with the
// phis passed as edge values:
//
//	b0: x0 = 1; y0 = 2; n = 10; br b1
//	b1: x = φ(x0, y); y = φ(y0, x); t = x + y; brif t < n -> b2, b3
//	b2: br b1
//	b3: ret x
//
// x and y are defined on entry to b1; x0 and y0 are read on the way
// out of b0, and y and x on the way out of b2.
type swapLoop struct {
	f                   *ir.Func
	entryDefs, exitUses [][]ir.Reg
	x0, y0, n, x, y     ir.Reg
}

func newSwapLoop() *swapLoop {
	f := &ir.Func{Name: "SWAP"}
	l := &swapLoop{f: f}
	l.x0, l.y0, l.n = f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt)
	l.x, l.y = f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt)
	t := f.NewReg(ir.ClassInt)
	op := func(o ir.Op, dst, a, b ir.Reg, imm int64) ir.Instr {
		return ir.Instr{Op: o, Dst: dst, A: a, B: b, C: ir.NoReg, Imm: imm}
	}
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	b0.Instrs = []ir.Instr{
		op(ir.OpConst, l.x0, ir.NoReg, ir.NoReg, 1),
		op(ir.OpConst, l.y0, ir.NoReg, ir.NoReg, 2),
		op(ir.OpConst, l.n, ir.NoReg, ir.NoReg, 10),
		op(ir.OpBr, ir.NoReg, ir.NoReg, ir.NoReg, 0),
	}
	b0.Succs = []int{1}
	b1.Instrs = []ir.Instr{
		op(ir.OpAdd, t, l.x, l.y, 0),
		{Op: ir.OpBrIf, Dst: ir.NoReg, A: t, B: l.n, C: ir.NoReg, Cmp: ir.CmpLT},
	}
	b1.Succs = []int{2, 3}
	b2.Instrs = []ir.Instr{op(ir.OpBr, ir.NoReg, ir.NoReg, ir.NoReg, 0)}
	b2.Succs = []int{1}
	b3.Instrs = []ir.Instr{op(ir.OpRet, ir.NoReg, l.x, ir.NoReg, 0)}
	f.RecomputePreds()
	l.entryDefs = [][]ir.Reg{nil, {l.x, l.y}, nil, nil}
	l.exitUses = [][]ir.Reg{{l.x0, l.y0}, nil, {l.y, l.x}, nil}
	return l
}

// setOf is the set of rs over f's registers.
func setOf(f *ir.Func, rs ...ir.Reg) *bitset.Set {
	s := bitset.New(f.NumRegs())
	for _, r := range rs {
		s.Add(int(r))
	}
	return s
}

// TestLivenessEdges checks every In and Out set of the swap loop. A
// value read on the way out of a predecessor and defined on entry to
// its successor (x and y on the back edge b2 -> b1) is live out of
// the one and not into the other; n, which the header reads, is live
// around the whole loop.
func TestLivenessEdges(t *testing.T) {
	l := newSwapLoop()
	f := l.f
	lv := dataflow.ComputeLivenessEdges(f, l.entryDefs, l.exitUses)
	want := []struct{ in, out *bitset.Set }{
		{setOf(f), setOf(f, l.x0, l.y0, l.n)},
		{setOf(f, l.n), setOf(f, l.x, l.y, l.n)},
		{setOf(f, l.x, l.y, l.n), setOf(f, l.x, l.y, l.n)},
		{setOf(f, l.x), setOf(f)},
	}
	for b, w := range want {
		if !lv.In[b].Equal(w.in) || !lv.Out[b].Equal(w.out) {
			t.Errorf("b%d: in %v out %v, want in %v out %v", b, lv.In[b], lv.Out[b], w.in, w.out)
		}
	}
}

// TestLivenessEdgesEmpty checks that no edge values, as nil lists or
// as lists with nothing in them, solve exactly what ComputeLiveness
// solves.
func TestLivenessEdgesEmpty(t *testing.T) {
	f := newSwapLoop().f
	want := dataflow.ComputeLiveness(f)
	n := len(f.Blocks)
	for _, lv := range []*dataflow.Liveness{
		dataflow.ComputeLivenessEdges(f, nil, nil),
		dataflow.ComputeLivenessEdges(f, make([][]ir.Reg, n), make([][]ir.Reg, n)),
	} {
		for b := range f.Blocks {
			if !lv.In[b].Equal(want.In[b]) || !lv.Out[b].Equal(want.Out[b]) {
				t.Errorf("b%d: in %v out %v, ComputeLiveness in %v out %v", b, lv.In[b], lv.Out[b], want.In[b], want.Out[b])
			}
		}
	}
}
