package coalesce_test

import (
	"testing"

	"regalloc/internal/coalesce"
	"regalloc/internal/dataflow"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/irinterp"
)

// coalesceFresh coalesces f on a fresh liveness, aggressively or,
// with a non-nil k, under the Briggs conservative test. It returns the
// moves removed and the liveness the run left current for f.
func coalesceFresh(f *ir.Func, k func(ir.Class) int) (int, *dataflow.Liveness) {
	lv := dataflow.ComputeLiveness(f)
	st, _ := coalesce.RunWithLiveness(f, lv, k, 0, nil)
	return st.Moves, lv
}

func countMoves(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].IsMove() {
				n++
			}
		}
	}
	return n
}

func TestCoalescesSimpleCopy(t *testing.T) {
	f := &ir.Func{Name: "C"}
	a := f.NewReg(ir.ClassInt)
	b := f.NewReg(ir.ClassInt)
	blk := f.NewBlock()
	blk.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: a, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 7},
		{Op: ir.OpMove, Dst: b, A: a, B: ir.NoReg, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: b, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	n, lv := coalesceFresh(f, nil)
	if n != 1 {
		t.Fatalf("coalesced %d, want 1", n)
	}
	if countMoves(f) != 0 {
		t.Fatal("copy not deleted")
	}
	if g := ig.BuildWithLiveness(f, lv, 0, nil); g == nil || g.NumEdges() != 0 {
		t.Fatalf("graph of the coalesced function: %v, want one with no edges", g)
	}
	if f.Blocks[0].Instrs[1].A != a {
		t.Fatal("ret operand not renamed to the representative")
	}
}

func TestRefusesInterferingCopy(t *testing.T) {
	// a = 1 ; b = a ; a = 2 ; ret a+b  — a and b interfere.
	f := &ir.Func{Name: "I"}
	a := f.NewReg(ir.ClassInt)
	b := f.NewReg(ir.ClassInt)
	c := f.NewReg(ir.ClassInt)
	blk := f.NewBlock()
	blk.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: a, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1},
		{Op: ir.OpMove, Dst: b, A: a, B: ir.NoReg, C: ir.NoReg},
		{Op: ir.OpConst, Dst: a, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 2},
		{Op: ir.OpAdd, Dst: c, A: a, B: b, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: c, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	n, _ := coalesceFresh(f, nil)
	if n != 0 {
		t.Fatalf("coalesced an interfering pair (%d merges)", n)
	}
	if countMoves(f) != 1 {
		t.Fatal("interfering copy must survive")
	}
}

// TestMergesWhenSourceStillUsed: a = 7 ; b = a ; ret a+b. a is live
// after the copy that defines b, but a copy's source is exempt from
// interfering with its destination, so the two merge.
func TestMergesWhenSourceStillUsed(t *testing.T) {
	f := &ir.Func{Name: "U"}
	a := f.NewReg(ir.ClassInt)
	b := f.NewReg(ir.ClassInt)
	c := f.NewReg(ir.ClassInt)
	blk := f.NewBlock()
	blk.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: a, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 7},
		{Op: ir.OpMove, Dst: b, A: a, B: ir.NoReg, C: ir.NoReg},
		{Op: ir.OpAdd, Dst: c, A: a, B: b, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: c, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	if n, _ := coalesceFresh(f, nil); n != 1 {
		t.Fatalf("coalesced %d, want 1", n)
	}
	if countMoves(f) != 0 {
		t.Fatal("copy not deleted")
	}
}

// TestRefusesInterferenceFromMoveFreeBlock: the copy b = a sits in
// the entry block, but the only definition that makes a and b
// interfere — a redefined while b is live — sits in a successor block
// that holds no move.
func TestRefusesInterferenceFromMoveFreeBlock(t *testing.T) {
	f := &ir.Func{Name: "M"}
	a := f.NewReg(ir.ClassInt)
	b := f.NewReg(ir.ClassInt)
	c := f.NewReg(ir.ClassInt)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b0.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: a, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1},
		{Op: ir.OpMove, Dst: b, A: a, B: ir.NoReg, C: ir.NoReg},
		{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg},
	}
	b0.Succs = []int{b1.ID}
	b1.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: a, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 2},
		{Op: ir.OpAdd, Dst: c, A: a, B: b, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: c, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	if n, _ := coalesceFresh(f, nil); n != 0 {
		t.Fatalf("coalesced an interfering pair (%d merges)", n)
	}
	if countMoves(f) != 1 {
		t.Fatal("interfering copy must survive")
	}
}

func TestSpillTempsNotCoalesced(t *testing.T) {
	f := &ir.Func{Name: "S"}
	a := f.NewReg(ir.ClassInt)
	tmp := f.NewSpillTemp(ir.ClassInt)
	blk := f.NewBlock()
	blk.Instrs = []ir.Instr{
		{Op: ir.OpSpillLoad, Dst: tmp, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg},
		{Op: ir.OpMove, Dst: a, A: tmp, B: ir.NoReg, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: a, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	n, _ := coalesceFresh(f, nil)
	if n != 0 {
		t.Fatal("coalesced a spill temporary")
	}
}

// TestChainedMovesRegression is the regression test for the
// soundness bug found during bring-up: two moves sharing a register
// merged in the same round can unify ranges whose interference the
// round's (stale) graph cannot see. Program:
//
//	v38 = move v126 ; v40 = move v38 ; v126 redefined while v40 live
//
// shaped so the naive double merge produces a wrong answer.
func TestChainedMovesRegression(t *testing.T) {
	build := func() *ir.Func {
		f := &ir.Func{Name: "R"}
		x := f.NewReg(ir.ClassInt) // v126 analogue
		y := f.NewReg(ir.ClassInt) // v38
		z := f.NewReg(ir.ClassInt) // v40
		s := f.NewReg(ir.ClassInt)
		blk := f.NewBlock()
		blk.Instrs = []ir.Instr{
			{Op: ir.OpConst, Dst: x, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 5},
			{Op: ir.OpMove, Dst: y, A: x, B: ir.NoReg, C: ir.NoReg},
			{Op: ir.OpMove, Dst: z, A: y, B: ir.NoReg, C: ir.NoReg},
			// x redefined while z is live: x-z interfere, but the
			// first-round graph has no y..z merge yet.
			{Op: ir.OpConst, Dst: x, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 9},
			{Op: ir.OpAdd, Dst: s, A: x, B: z, C: ir.NoReg},
			{Op: ir.OpRet, Dst: ir.NoReg, A: s, B: ir.NoReg, C: ir.NoReg},
		}
		f.RecomputePreds()
		return f
	}
	ref := build()
	p := ir.NewProgram(0)
	p.Add(ref)
	want, err := irinterp.New(p, 64).Call("R")
	if err != nil {
		t.Fatal(err)
	}
	f := build()
	coalesceFresh(f, nil)
	if err := ir.Validate(f); err != nil {
		t.Fatal(err)
	}
	p2 := ir.NewProgram(0)
	p2.Add(f)
	got, err := irinterp.New(p2, 64).Call("R")
	if err != nil {
		t.Fatal(err)
	}
	if got.I != want.I {
		t.Fatalf("coalescing changed the result: %d, want %d", got.I, want.I)
	}
}

func TestCrossClassNeverCoalesced(t *testing.T) {
	f := &ir.Func{Name: "X"}
	a := f.NewReg(ir.ClassInt)
	x := f.NewReg(ir.ClassFloat)
	blk := f.NewBlock()
	// A conversion is not a move, but build a malformed-looking move
	// guard anyway via distinct classes on a real conversion op.
	blk.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: a, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1},
		{Op: ir.OpItoF, Dst: x, A: a, B: ir.NoReg, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: x, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	n, _ := coalesceFresh(f, nil)
	if n != 0 {
		t.Fatal("nothing should coalesce here")
	}
}

// TestConservativeRefusesRiskyMerge: with the Briggs test active, a
// merge whose combined node would have >= k significant-degree
// neighbors is refused, while obviously safe merges still happen.
func TestConservativeRefusesRiskyMerge(t *testing.T) {
	kOf := func(ir.Class) int { return 2 }

	// Safe case: isolated copy chain, no neighbors at all.
	f := &ir.Func{Name: "S"}
	a := f.NewReg(ir.ClassInt)
	b := f.NewReg(ir.ClassInt)
	blk := f.NewBlock()
	blk.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: a, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1},
		{Op: ir.OpMove, Dst: b, A: a, B: ir.NoReg, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: b, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	if n, _ := coalesceFresh(f, kOf); n != 1 {
		t.Fatalf("safe merge refused (%d)", n)
	}

	// Risky case: dst and src each interfere with a different pair
	// of long-lived values, so the merged node would see 4 neighbors
	// of significant degree with k=2.
	g := &ir.Func{Name: "R"}
	w := g.NewReg(ir.ClassInt) // long-lived 1
	x := g.NewReg(ir.ClassInt) // long-lived 2
	y := g.NewReg(ir.ClassInt) // copy source
	z := g.NewReg(ir.ClassInt) // copy dest
	s := g.NewReg(ir.ClassInt)
	blk2 := g.NewBlock()
	blk2.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: w, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1},
		{Op: ir.OpConst, Dst: x, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 2},
		{Op: ir.OpConst, Dst: y, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 3},
		{Op: ir.OpAdd, Dst: s, A: w, B: x, C: ir.NoReg}, // y live across: y-w, y-x edges
		{Op: ir.OpMove, Dst: z, A: y, B: ir.NoReg, C: ir.NoReg},
		{Op: ir.OpAdd, Dst: s, A: s, B: w, C: ir.NoReg}, // z live across: z-w, z-x(?), z-s
		{Op: ir.OpAdd, Dst: s, A: s, B: x, C: ir.NoReg},
		{Op: ir.OpAdd, Dst: s, A: s, B: z, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: s, B: ir.NoReg, C: ir.NoReg},
	}
	g.RecomputePreds()
	nAgg := func() int {
		c := g.Clone()
		n, _ := coalesceFresh(c, nil)
		return n
	}()
	nCons := func() int {
		c := g.Clone()
		n, _ := coalesceFresh(c, kOf)
		return n
	}()
	if nCons >= nAgg {
		t.Fatalf("conservative (%d) should merge fewer than aggressive (%d) here", nCons, nAgg)
	}
}

// TestChangedAnswersAskedAgain covers the two ways a merge can turn an
// interfering candidate into a mergeable one, which the corpus never
// shows: the interference rested on a copy the merge deletes. Each
// unit must match the reference round loop.
//
// SELF: a = move a is a self-copy on entry and the only definition of
// a with x live after it. The first merging round (b = move c)
// deletes it, as rewriting the function would, so x = move a merges
// one round later.
//
// DEAD: the dead copy d = move b keeps b live across x's definition,
// so b and x interfere when first asked. d merges with e in round 1,
// which keeps d = move b from merging until round 2. That merge
// deletes the copy, and b = move x merges in round 3.
func TestChangedAnswersAskedAgain(t *testing.T) {
	op := func(o ir.Op, dst, a ir.Reg, imm int64) ir.Instr {
		return ir.Instr{Op: o, Dst: dst, A: a, B: ir.NoReg, C: ir.NoReg, Imm: imm}
	}
	self := func() *ir.Func {
		f := &ir.Func{Name: "SELF"}
		a, b, c, x := f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt)
		b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
		b0.Instrs = []ir.Instr{
			op(ir.OpConst, a, ir.NoReg, 1),
			op(ir.OpConst, c, ir.NoReg, 2),
			op(ir.OpMove, x, a, 0),
			op(ir.OpBr, ir.NoReg, ir.NoReg, 0),
		}
		b0.Succs = []int{b1.ID}
		b1.Instrs = []ir.Instr{
			op(ir.OpMove, a, a, 0),
			op(ir.OpMove, b, c, 0),
			{Op: ir.OpBrIf, Dst: ir.NoReg, A: b, B: x, C: ir.NoReg, Cmp: ir.CmpLT, Cls: ir.ClassInt},
		}
		b1.Succs = []int{b1.ID, b2.ID}
		b2.Instrs = []ir.Instr{op(ir.OpRet, ir.NoReg, b, 0)}
		return f
	}
	dead := func() *ir.Func {
		f := &ir.Func{Name: "DEAD"}
		b, d, e, x := f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt)
		b0 := f.NewBlock()
		b0.Instrs = []ir.Instr{
			op(ir.OpConst, e, ir.NoReg, 9),
			op(ir.OpMove, d, e, 0),
			op(ir.OpConst, b, ir.NoReg, 1),
			op(ir.OpConst, x, ir.NoReg, 2),
			op(ir.OpMove, d, b, 0),
			op(ir.OpMove, b, x, 0),
			op(ir.OpRet, ir.NoReg, b, 0),
		}
		return f
	}
	for _, tc := range []struct {
		build         func() *ir.Func
		moves, rounds int
	}{
		{self, 2, 3},
		{dead, 3, 4},
	} {
		f, ref := tc.build(), tc.build()
		for _, g := range []*ir.Func{f, ref} {
			g.RecomputePreds()
			if err := ir.Validate(g); err != nil {
				t.Fatal(err)
			}
		}
		lv := dataflow.ComputeLiveness(f)
		st, _ := coalesce.RunWithLiveness(f, lv, nil, 0, nil)
		refSt, _ := coalesce.RunAggressiveRef(ref, dataflow.ComputeLiveness(ref), nil)
		if refSt.Moves != tc.moves || refSt.Rounds != tc.rounds {
			t.Fatalf("%s: test premise broken: the reference merged %d moves in %d rounds, want %d in %d",
				f.Name, refSt.Moves, refSt.Rounds, tc.moves, tc.rounds)
		}
		if st.Moves != refSt.Moves || st.Rounds != refSt.Rounds {
			t.Errorf("%s: %d moves in %d rounds, reference %d in %d", f.Name, st.Moves, st.Rounds, refSt.Moves, refSt.Rounds)
		}
		if listing(f) != listing(ref) {
			t.Errorf("%s: listing differs from the reference:\n%s\nreference:\n%s", f.Name, listing(f), listing(ref))
		}
		if err := diffLiveness(f, lv, dataflow.ComputeLiveness(f)); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
}
