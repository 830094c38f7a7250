package liverange_test

import (
	"testing"

	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
	"regalloc/internal/irinterp"
	"regalloc/internal/liverange"
)

// disjointWebs builds a function where one variable x holds two
// completely independent values:
//
//	x = 1 ; y = x+x ; x = 2 ; z = x+y ; ret z
//
// Renumbering must split x into two live ranges.
func disjointWebs() *ir.Func {
	f := &ir.Func{Name: "W"}
	x := f.NewReg(ir.ClassInt)
	y := f.NewReg(ir.ClassInt)
	z := f.NewReg(ir.ClassInt)
	b := f.NewBlock()
	b.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: x, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1},
		{Op: ir.OpAdd, Dst: y, A: x, B: x, C: ir.NoReg},
		{Op: ir.OpConst, Dst: x, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 2},
		{Op: ir.OpAdd, Dst: z, A: x, B: y, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: z, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	return f
}

func TestSplitsDisjointWebs(t *testing.T) {
	f := disjointWebs()
	before := f.NumRegs()
	lv := liverange.Renumber(f)
	n := f.NumRegs()
	if lv.In[0].Cap() != n {
		t.Fatalf("returned liveness covers %d regs but function has %d", lv.In[0].Cap(), n)
	}
	if n != before+1 {
		t.Fatalf("expected %d webs (x split in two), got %d", before+1, n)
	}
	if err := ir.Validate(f); err != nil {
		t.Fatal(err)
	}
	// The two defs of the original x must now target different
	// registers.
	ins := f.Blocks[0].Instrs
	if ins[0].Dst == ins[2].Dst {
		t.Fatal("disjoint webs share a register after renumbering")
	}
	// And the uses must reference the right ones.
	if ins[1].A != ins[0].Dst || ins[3].A != ins[2].Dst {
		t.Fatal("uses rewritten to the wrong web")
	}
}

// loopWeb: a loop-carried variable (def before loop + def in loop,
// joined by the use around the back edge) must stay ONE web.
func loopWeb() (*ir.Func, ir.Reg) {
	f := &ir.Func{Name: "L"}
	i := f.NewReg(ir.ClassInt)
	n := f.NewReg(ir.ClassInt)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b0.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: i, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 0},
		{Op: ir.OpConst, Dst: n, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 10},
		{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg},
	}
	b0.Succs = []int{1}
	b1.Instrs = []ir.Instr{
		{Op: ir.OpAddI, Dst: i, A: i, B: ir.NoReg, C: ir.NoReg, Imm: 1},
		{Op: ir.OpBrIf, Dst: ir.NoReg, A: i, B: n, C: ir.NoReg, Cmp: ir.CmpLT},
	}
	b1.Succs = []int{1, 2}
	b2.Instrs = []ir.Instr{{Op: ir.OpRet, Dst: ir.NoReg, A: i, B: ir.NoReg, C: ir.NoReg}}
	f.RecomputePreds()
	return f, i
}

func TestLoopCarriedStaysOneWeb(t *testing.T) {
	f, _ := loopWeb()
	liverange.Renumber(f)
	if err := ir.Validate(f); err != nil {
		t.Fatal(err)
	}
	// The def in b0, the def+use in b1, and the use in b2 must all
	// refer to one register.
	d0 := f.Blocks[0].Instrs[0].Dst
	d1 := f.Blocks[1].Instrs[0].Dst
	u1 := f.Blocks[1].Instrs[0].A
	u2 := f.Blocks[2].Instrs[0].A
	if d0 != d1 || d1 != u1 || u1 != u2 {
		t.Fatalf("loop-carried variable split: %v %v %v %v", d0, d1, u1, u2)
	}
}

func TestSemanticsPreservedByRenumber(t *testing.T) {
	f := disjointWebs()
	p := ir.NewProgram(0)
	p.Add(f.Clone())
	ref, err := irinterp.New(p, 1024).Call("W")
	if err != nil {
		t.Fatal(err)
	}
	liverange.Renumber(f)
	p2 := ir.NewProgram(0)
	p2.Add(f)
	got, err := irinterp.New(p2, 1024).Call("W")
	if err != nil {
		t.Fatal(err)
	}
	if got.I != ref.I {
		t.Fatalf("renumbering changed the result: %d vs %d", got.I, ref.I)
	}
}

func TestSpillTempFlagPreserved(t *testing.T) {
	f := &ir.Func{Name: "S"}
	x := f.NewSpillTemp(ir.ClassFloat)
	b := f.NewBlock()
	b.Instrs = []ir.Instr{
		{Op: ir.OpSpillLoad, Dst: x, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: x, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	liverange.Renumber(f)
	found := false
	for r := 0; r < f.NumRegs(); r++ {
		if f.RegFlags(ir.Reg(r))&ir.FlagSpillTemp != 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("spill-temp flag lost by renumbering")
	}
}

func TestParamsRemapped(t *testing.T) {
	f := &ir.Func{Name: "P"}
	p0 := f.NewReg(ir.ClassInt)
	f.Params = []ir.Reg{p0}
	b := f.NewBlock()
	b.Instrs = []ir.Instr{
		{Op: ir.OpParam, Dst: p0, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 0},
		{Op: ir.OpRet, Dst: ir.NoReg, A: p0, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	liverange.Renumber(f)
	if f.Params[0] != f.Blocks[0].Instrs[0].Dst {
		t.Fatal("param register not remapped to its web")
	}
}

func TestLiveRangeSizes(t *testing.T) {
	f := disjointWebs()
	defs, uses := liverange.LiveRangeSizes(f)
	// reg 0 (x): 2 defs, 3 uses (x+x counts twice, then x+y once).
	if defs[0] != 2 || uses[0] != 3 {
		t.Fatalf("x: defs=%d uses=%d", defs[0], uses[0])
	}
}

// unreachableRead builds the shape of a routine that reads a variable
// in code after its RETURN:
//
//	b0: j = 1 ; ret j
//	b1: i = j+j ; ret i   (no predecessor)
//
// No definition reaches b1's read of j.
func unreachableRead() *ir.Func {
	f := &ir.Func{Name: "U", HasRet: true, RetCls: ir.ClassInt}
	j := f.NewReg(ir.ClassInt)
	i := f.NewReg(ir.ClassInt)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b0.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: j, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1},
		{Op: ir.OpRet, Dst: ir.NoReg, A: j, B: ir.NoReg, C: ir.NoReg},
	}
	b1.Instrs = []ir.Instr{
		{Op: ir.OpAdd, Dst: i, A: j, B: j, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: i, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	return f
}

// TestUnreachableReadGetsOwnWeb: a read no definition reaches gets a
// web of its own, numbered after the definitions' webs, instead of a
// panic.
func TestUnreachableReadGetsOwnWeb(t *testing.T) {
	f := unreachableRead()
	p := ir.NewProgram(0)
	p.Add(f.Clone())
	ref, err := irinterp.New(p, 1024).Call("U")
	if err != nil {
		t.Fatal(err)
	}
	lv := liverange.Renumber(f)
	if err := ir.Validate(f); err != nil {
		t.Fatal(err)
	}
	def, read := f.Blocks[0].Instrs[0].Dst, f.Blocks[1].Instrs[0].A
	if f.NumRegs() != 3 || def != 0 || read != 2 || f.Blocks[1].Instrs[0].B != read {
		t.Fatalf("%d webs, j defined as v%d and read as v%d; want 3, v0 and v2", f.NumRegs(), def, read)
	}
	if f.RegClass(read) != ir.ClassInt {
		t.Fatalf("unreachable read's web has class %s", f.RegClass(read))
	}
	want := dataflow.ComputeLiveness(f)
	for b := range f.Blocks {
		if !lv.In[b].Equal(want.In[b]) || !lv.Out[b].Equal(want.Out[b]) {
			t.Fatalf("b%d: returned liveness in %v out %v, recomputed in %v out %v",
				b, lv.In[b], lv.Out[b], want.In[b], want.Out[b])
		}
	}
	p2 := ir.NewProgram(0)
	p2.Add(f)
	got, err := irinterp.New(p2, 1024).Call("U")
	if err != nil {
		t.Fatal(err)
	}
	if got.I != ref.I {
		t.Fatalf("renumbering changed the result: %d vs %d", got.I, ref.I)
	}
}
