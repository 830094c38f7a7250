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
	lv.LiveAcross(f, f.Blocks[0], func(i int, in *ir.Instr, live *bitset.Set) {
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
