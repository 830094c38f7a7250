package alloc_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"regalloc/internal/alloc"
	"regalloc/internal/color"
	"regalloc/internal/ir"
	"regalloc/internal/irgen"
	"regalloc/internal/obs"
	"regalloc/internal/parser"
	"regalloc/internal/sem"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	astProg, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(astProg)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	prog, err := irgen.Gen(astProg, info, irgen.DefaultStaticStart)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

const pressureSrc = `
      SUBROUTINE HOT(A,B,N)
      REAL A(*),B(*)
      REAL T1,T2,T3,T4,T5,T6,T7,T8,T9,TA,TB,TC
      INTEGER I,N
      T1 = A(1)
      T2 = A(2)
      T3 = A(3)
      T4 = A(4)
      T5 = A(5)
      T6 = A(6)
      T7 = A(7)
      T8 = A(8)
      T9 = A(9)
      TA = A(10)
      TB = A(11)
      TC = A(12)
      DO I = 1,N
         B(I) = T1 + T2*T3 + T4*T5 + T6*T7 + T8*T9 + TA*TB + TC
      ENDDO
      B(1) = T1 + T2 + T3 + T4 + T5 + T6 + T7 + T8 + T9 + TA + TB + TC
      RETURN
      END
`

func TestAllocatesCleanly(t *testing.T) {
	prog := compile(t, pressureSrc)
	for _, h := range []color.Heuristic{color.Chaitin, color.Briggs, color.MatulaBeck} {
		opt := alloc.DefaultOptions()
		opt.Heuristic = h
		res, err := alloc.Run(prog.Func("HOT"), opt)
		if err != nil {
			// Matula–Beck is the paper's cost-blind comparator
			// (§2.3: such an allocator "would produce arbitrary
			// allocations — possibly terrible"); under pressure its
			// ordering may strand a spill temporary, which the
			// driver reports rather than looping. That is expected.
			if h == color.MatulaBeck && strings.Contains(err.Error(), "spill temporary") {
				continue
			}
			t.Fatalf("%s: %v", h, err)
		}
		// Every register colored, within its class bound.
		for r := 0; r < res.Func.NumRegs(); r++ {
			c := res.Colors[r]
			if c < 0 {
				t.Fatalf("%s: register %d uncolored", h, r)
			}
			k := opt.KInt
			if res.Func.RegClass(ir.Reg(r)) == ir.ClassFloat {
				k = opt.KFloat
			}
			if int(c) >= k {
				t.Fatalf("%s: color %d out of range", h, c)
			}
		}
	}
}

func TestPressureForcesSpills(t *testing.T) {
	prog := compile(t, pressureSrc)
	opt := alloc.DefaultOptions()
	opt.KFloat = 4 // 12 long-lived floats cannot fit in 4 registers
	res, err := alloc.Run(prog.Func("HOT"), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSpilled() == 0 {
		t.Fatal("expected spills with 4 float registers")
	}
	if res.Passes[len(res.Passes)-1].Spilled != 0 {
		t.Fatal("final pass must be spill-free")
	}
	if res.FirstPassSpilled() != res.Passes[0].Spilled {
		t.Fatal("FirstPassSpilled accessor inconsistent")
	}
	if res.FirstPassSpillCost() <= 0 || res.TotalSpillCost() < res.FirstPassSpillCost() {
		t.Fatal("spill cost accounting inconsistent")
	}
	if res.LiveRanges() != res.Passes[0].LiveRanges {
		t.Fatal("LiveRanges accessor inconsistent")
	}
	if res.TotalTime() <= 0 {
		t.Fatal("phase times not recorded")
	}
}

func TestOriginalFunctionUntouched(t *testing.T) {
	prog := compile(t, pressureSrc)
	f := prog.Func("HOT")
	before := f.NumRegs()
	beforeInstrs := f.NumInstrs()
	opt := alloc.DefaultOptions()
	opt.KFloat = 4
	if _, err := alloc.Run(f, opt); err != nil {
		t.Fatal(err)
	}
	if f.NumRegs() != before || f.NumInstrs() != beforeInstrs {
		t.Fatal("alloc.Run mutated its input function")
	}
}

func TestBriggsNeverWorseEndToEnd(t *testing.T) {
	prog := compile(t, pressureSrc)
	for _, kf := range []int{3, 4, 5, 6, 8} {
		optC := alloc.DefaultOptions()
		optC.Heuristic = color.Chaitin
		optC.KFloat = kf
		cRes, err := alloc.Run(prog.Func("HOT"), optC)
		if err != nil {
			t.Fatalf("kf=%d chaitin: %v", kf, err)
		}
		optB := optC
		optB.Heuristic = color.Briggs
		bRes, err := alloc.Run(prog.Func("HOT"), optB)
		if err != nil {
			t.Fatalf("kf=%d briggs: %v", kf, err)
		}
		if bRes.FirstPassSpilled() > cRes.FirstPassSpilled() {
			t.Errorf("kf=%d: briggs first-pass spills %d > chaitin %d",
				kf, bRes.FirstPassSpilled(), cRes.FirstPassSpilled())
		}
	}
}

func TestTooFewRegistersFails(t *testing.T) {
	prog := compile(t, pressureSrc)
	opt := alloc.DefaultOptions()
	opt.KInt = 0
	if _, err := alloc.Run(prog.Func("HOT"), opt); err == nil {
		t.Fatal("expected an error with zero registers")
	}
	opt = alloc.DefaultOptions()
	opt.KFloat = 1 // an fadd of two distinct values cannot fit
	_, err := alloc.Run(prog.Func("HOT"), opt)
	if err == nil {
		t.Fatal("expected an error with one float register")
	}
	if !strings.Contains(err.Error(), "cannot hold one instruction") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestCoalesceOption(t *testing.T) {
	prog := compile(t, pressureSrc)
	on := alloc.DefaultOptions()
	off := alloc.DefaultOptions()
	off.Coalesce = false
	resOn, err := alloc.Run(prog.Func("HOT"), on)
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := alloc.Run(prog.Func("HOT"), off)
	if err != nil {
		t.Fatal(err)
	}
	if resOn.Passes[0].CoalescedMoves == 0 {
		t.Fatal("coalescing found nothing in copy-heavy code")
	}
	if resOff.Passes[0].CoalescedMoves != 0 {
		t.Fatal("coalescing ran while disabled")
	}
	// Coalescing removes copies: fewer instructions in the final
	// function.
	if resOn.Func.NumInstrs() >= resOff.Func.NumInstrs() {
		t.Fatal("coalescing did not shrink the code")
	}
}

func TestMetricsConverge(t *testing.T) {
	prog := compile(t, pressureSrc)
	for _, m := range []color.Metric{color.CostOverDegree, color.CostOnly, color.DegreeOnly} {
		opt := alloc.DefaultOptions()
		opt.KFloat = 4
		opt.Metric = m
		if _, err := alloc.Run(prog.Func("HOT"), opt); err != nil {
			t.Fatalf("metric %d: %v", m, err)
		}
	}
}

func TestChaitinSkipsColorOnSpillPass(t *testing.T) {
	prog := compile(t, pressureSrc)
	opt := alloc.DefaultOptions()
	opt.Heuristic = color.Chaitin
	opt.KFloat = 4
	res, err := alloc.Run(prog.Func("HOT"), opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Passes {
		last := i == len(res.Passes)-1
		if !last && p.Spilled > 0 && p.Color != 0 {
			t.Fatal("Chaitin must not run the color phase on a spilling pass")
		}
		if last && p.Color == 0 {
			t.Fatal("final pass must include coloring")
		}
	}
}

// TestRematerializeOption: with Chaitin's never-killed refinement
// enabled, constant-valued ranges spill without stores or slots, and
// the allocation still verifies.
func TestRematerializeOption(t *testing.T) {
	// Force pressure among long-lived float constants.
	src := `
      SUBROUTINE KONST(A,N)
      REAL A(*)
      REAL C1,C2,C3,C4,C5,C6
      INTEGER I,N
      C1 = 1.5
      C2 = 2.5
      C3 = 3.5
      C4 = 4.5
      C5 = 5.5
      C6 = 6.5
      DO I = 1,N
         A(I) = A(I)*C1 + C2 + A(I)*C3 + C4 + A(I)*C5 + C6
      ENDDO
      RETURN
      END
`
	prog := compile(t, src)
	opt := alloc.DefaultOptions()
	opt.KFloat = 3
	opt.Rematerialize = true
	res, err := alloc.Run(prog.Func("KONST"), opt)
	if err != nil {
		t.Fatal(err)
	}
	remats := 0
	for _, p := range res.Passes {
		remats += p.Remats
	}
	if remats == 0 {
		t.Fatal("no constant recomputations under pressure")
	}
	// Compare against the non-remat run: remat must not spill a more
	// expensive set (it only cheapens candidates).
	optOff := opt
	optOff.Rematerialize = false
	resOff, err := alloc.Run(prog.Func("KONST"), optOff)
	if err != nil {
		t.Fatal(err)
	}
	if res.Func.NumSlots > resOff.Func.NumSlots {
		t.Fatalf("remat used more memory slots (%d > %d)", res.Func.NumSlots, resOff.Func.NumSlots)
	}
}

// TestVerifyAssignment: the independent (liveness-based) checker
// passes every real allocation and catches a manufactured clash.
func TestVerifyAssignment(t *testing.T) {
	prog := compile(t, pressureSrc)
	for _, h := range []color.Heuristic{color.Chaitin, color.Briggs} {
		for _, kf := range []int{3, 4, 8} {
			opt := alloc.DefaultOptions()
			opt.Heuristic = h
			opt.KFloat = kf
			res, err := alloc.Run(prog.Func("HOT"), opt)
			if err != nil {
				t.Fatalf("%s kf=%d: %v", h, kf, err)
			}
			if err := alloc.VerifyAssignment(res.Func, res.Colors); err != nil {
				t.Fatalf("%s kf=%d: %v", h, kf, err)
			}
			// Corrupt the assignment: force two simultaneously-live
			// float ranges into one register and expect a complaint.
			bad := append([]int16(nil), res.Colors...)
			clobbered := false
			for r := 0; r < res.Func.NumRegs() && !clobbered; r++ {
				if res.Func.RegClass(ir.Reg(r)) == ir.ClassFloat && bad[r] != 0 {
					bad[r] = 0
					if alloc.VerifyAssignment(res.Func, bad) != nil {
						clobbered = true
					}
					bad[r] = res.Colors[r]
				}
			}
			if !clobbered {
				t.Fatalf("%s kf=%d: no corruption detected by the verifier", h, kf)
			}
		}
	}
}

// cancelOnMerge is an Observer that cancels its context at the first
// coalesce.merged counter.
type cancelOnMerge struct {
	cancel context.CancelFunc
	merged int64
	seen   bool
}

func (c *cancelOnMerge) Emit(e obs.Event) {
	if e.Kind == obs.KindCounter && e.Name == "coalesce.merged" && !c.seen {
		c.seen = true
		c.merged = e.Value
		c.cancel()
	}
}

// TestCancelStopsCoalescingRounds: a context cancelled while the
// coalescing pre-pass runs stops the allocation at the next round,
// even in a unit that needs only one pass, where no pass boundary
// follows.
func TestCancelStopsCoalescingRounds(t *testing.T) {
	f := compile(t, pressureSrc).Func("HOT")
	opt := alloc.DefaultOptions()
	opt.KInt, opt.KFloat = 16, 16
	res, err := alloc.Run(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Passes) != 1 || res.Passes[0].CoalescedMoves == 0 {
		t.Fatalf("test premise broken: HOT at (16,16) took %d passes and merged %d moves in the first; want one pass that merges",
			len(res.Passes), res.Passes[0].CoalescedMoves)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obsv := &cancelOnMerge{cancel: cancel}
	opt.Observer = obsv
	_, err = alloc.RunContext(ctx, f, opt)
	if obsv.merged == 0 {
		t.Fatalf("test premise broken: the first round merged nothing")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled after the first coalescing round: err = %v, want context.Canceled", err)
	}
	t.Log(err)
}
