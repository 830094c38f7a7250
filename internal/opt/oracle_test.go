package opt_test

import (
	"bytes"
	"testing"

	"regalloc"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ir"
	"regalloc/internal/opt"
	"regalloc/internal/workloads"
)

// TestLICMMatchesReference checks LICM against the reference that
// re-analyzes the CFG after every hoist: the same hoist count and an
// identical listing (instructions, predecessors, depths) on every
// unit of the suite plus QSORT, on 200 generated programs under the
// default generator config and 200 under a larger one, and on
// many-loop units of 300 loops and of 513, which crosses the hoist
// cap. Units are checked after local CSE, as the optimizer hands them
// to LICM; all but the many-loop units, whose reference runs dominate
// the test's time, also as the front end leaves them.
func TestLICMMatchesReference(t *testing.T) {
	type input struct {
		src string
		raw bool // also check the unit without CSE
	}
	var ins []input
	loopCounts := []int{300, 513}
	if testing.Short() {
		loopCounts = loopCounts[:1]
	}
	for _, n := range loopCounts {
		ins = append(ins, input{workloads.Loops(n).Source, false})
	}
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		ins = append(ins, input{w.Source, true})
	}
	for _, c := range []fuzzgen.Config{{}, {MaxStmts: 40, MaxDepth: 5}} {
		for seed := uint64(0); seed < 200; seed++ {
			ins = append(ins, input{fuzzgen.Generate(seed, c), true})
		}
	}
	units, hoisted := 0, 0
	for _, in := range ins {
		prog, err := regalloc.CompileNoOpt(in.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range prog.IR.Funcs {
			cse := f.Clone()
			opt.LocalCSE(cse)
			check := []*ir.Func{cse}
			if in.raw {
				check = append(check, f)
			}
			for _, u := range check {
				got, want := u.Clone(), u.Clone()
				n, wantN := opt.LICM(got), opt.LICMRef(want)
				if n != wantN {
					t.Fatalf("%s: LICM hoisted %d, reference %d", f.Name, n, wantN)
				}
				var gb, wb bytes.Buffer
				ir.Fprint(&gb, got)
				ir.Fprint(&wb, want)
				if line, g, w := firstDiff(gb.Bytes(), wb.Bytes()); line > 0 {
					t.Fatalf("%s: listing line %d is %q, reference %q", f.Name, line, g, w)
				}
				units++
				hoisted += n
			}
		}
	}
	t.Logf("%d units, %d instructions hoisted, identical to the reference", units, hoisted)
}

// firstDiff returns the 1-based number of the first line where a and
// b differ and the two lines, or 0 when they are equal.
func firstDiff(a, b []byte) (int, string, string) {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y []byte
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if i >= len(al) || i >= len(bl) || !bytes.Equal(x, y) {
			return i + 1, string(x), string(y)
		}
	}
	return 0, "", ""
}

// TestLICMRevisitsTouchedLoop pins the case where a loop that had
// nothing to hoist gains something once an enclosing loop's hoist
// takes instructions out of it. The inner loop (b2-b4) can leave from
// its header, so the load x in b3 does not dominate all its exits and
// stays; y in the header reads x, so it stays too. The outer loop's
// only exit is reached through b3 and it stores only to P, so it
// hoists x, and then y, a load of P, has no operand defined in the
// inner loop and must leave it on a second look.
//
//	b0 -> b1 (outer header) -> b2 (inner header: y = P[x]) -> b3 (x = Q[k]) or b5
//	b3 -> b4 -> b2 or b6;  b5 -> b1;  b6 (P[k] = k) -> b1 or b7 (ret)
func TestLICMRevisitsTouchedLoop(t *testing.T) {
	build := func() *ir.Func {
		f := &ir.Func{Name: "T"}
		p, q, k, n := f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt)
		x, y := f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt)
		f.Params = []ir.Reg{p, q, k, n}
		in := func(op ir.Op, dst, a, b, c ir.Reg) ir.Instr {
			return ir.Instr{Op: op, Dst: dst, A: a, B: b, C: c, Cls: ir.ClassInt}
		}
		br := in(ir.OpBr, ir.NoReg, ir.NoReg, ir.NoReg, ir.NoReg)
		brif := in(ir.OpBrIf, ir.NoReg, k, n, ir.NoReg)
		code := []struct {
			instrs []ir.Instr
			succs  []int
		}{
			{[]ir.Instr{
				{Op: ir.OpParam, Dst: p, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 0},
				{Op: ir.OpParam, Dst: q, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1},
				{Op: ir.OpParam, Dst: k, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 2},
				{Op: ir.OpParam, Dst: n, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 3},
				br}, []int{1}},
			{[]ir.Instr{br}, []int{2}},
			{[]ir.Instr{in(ir.OpLoad, y, ir.NoReg, p, x), brif}, []int{3, 5}},
			{[]ir.Instr{in(ir.OpLoad, x, ir.NoReg, q, k), br}, []int{4}},
			{[]ir.Instr{brif}, []int{2, 6}},
			{[]ir.Instr{br}, []int{1}},
			{[]ir.Instr{in(ir.OpStore, ir.NoReg, k, p, k), brif}, []int{1, 7}},
			{[]ir.Instr{in(ir.OpRet, ir.NoReg, ir.NoReg, ir.NoReg, ir.NoReg)}, nil},
		}
		for _, c := range code {
			b := f.NewBlock()
			b.Instrs, b.Succs = c.instrs, c.succs
		}
		f.RecomputePreds()
		if err := ir.Validate(f); err != nil {
			t.Fatal(err)
		}
		return f
	}
	got, want := build(), build()
	n, wantN := opt.LICM(got), opt.LICMRef(want)
	var gb, wb bytes.Buffer
	ir.Fprint(&gb, got)
	ir.Fprint(&wb, want)
	if line, g, w := firstDiff(gb.Bytes(), wb.Bytes()); line > 0 || n != wantN {
		t.Fatalf("hoisted %d, reference %d; listing line %d is %q, reference %q", n, wantN, line, g, w)
	}
	if n != 2 || len(got.Blocks) != 10 {
		t.Fatalf("hoisted %d into %d preheaders, want x and then y, one preheader each\n%s", n, len(got.Blocks)-8, gb.String())
	}
}

// BenchmarkLICM runs LICM and the reference over every unit of the
// suite plus QSORT, as local CSE leaves them.
func BenchmarkLICM(b *testing.B) {
	var units []*ir.Func
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		prog, err := regalloc.CompileNoOpt(w.Source)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range prog.IR.Funcs {
			opt.LocalCSE(f)
			units = append(units, f)
		}
	}
	for _, c := range []struct {
		name string
		licm func(*ir.Func) int
	}{{"once", opt.LICM}, {"reference", opt.LICMRef}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			work := make([]*ir.Func, len(units))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, f := range units {
					work[j] = f.Clone()
				}
				b.StartTimer()
				for _, f := range work {
					c.licm(f)
				}
			}
		})
	}
}
