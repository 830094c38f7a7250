package alloc_test

import (
	"fmt"
	"reflect"
	"testing"

	"regalloc"
	"regalloc/internal/alloc"
	"regalloc/internal/cfg"
	"regalloc/internal/color"
	"regalloc/internal/dataflow"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/liverange"
	"regalloc/internal/machine"
	"regalloc/internal/obs"
	"regalloc/internal/spill"
	"regalloc/internal/target"
	"regalloc/internal/workloads"
)

type unit struct {
	name, routine string
	prog          *regalloc.Program
}

// suiteUnits compiles every Figure 5 unit plus QSORT.
func suiteUnits(tb testing.TB) []unit {
	var us []unit
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		prog, err := regalloc.Compile(w.Source)
		if err != nil {
			tb.Fatalf("%s: %v", w.Program, err)
		}
		for _, r := range w.Routines {
			us = append(us, unit{w.Program + "/" + r, r, prog})
		}
	}
	return us
}

// suiteAndFuzzUnits compiles the suite and 100 generated CFGs.
func suiteAndFuzzUnits(tb testing.TB) []unit {
	us := suiteUnits(tb)
	for seed := uint64(0); seed < 100; seed++ {
		prog, err := regalloc.Compile(fuzzgen.Generate(seed, fuzzgen.Config{}))
		if err != nil {
			tb.Fatalf("fuzzgen seed %d: %v", seed, err)
		}
		us = append(us, unit{fmt.Sprintf("fz/%d", seed), "FZ", prog})
	}
	return us
}

// carryUnits compiles the suite, 100 generated CFGs and a 60-loop
// unit.
func carryUnits(tb testing.TB) []unit {
	us := suiteAndFuzzUnits(tb)
	w := workloads.Loops(60)
	prog, err := regalloc.Compile(w.Source)
	if err != nil {
		tb.Fatalf("%s: %v", w.Program, err)
	}
	return append(us, unit{"loops/60", "LOOPS", prog})
}

// diffFresh starts a pass on a copy of before the fresh way, with a
// full liveness solve, a renumbering and cfg.Analyze, and reports the
// first way the carried start (after, lv, info and the depths stamped
// on after's blocks) differs from it.
func diffFresh(before, after *ir.Func, lv *dataflow.Liveness, info *cfg.Info) error {
	fresh := before.Clone()
	freshLv := liverange.Renumber(fresh)
	freshInfo := cfg.Analyze(fresh)
	if after.NumRegs() != fresh.NumRegs() {
		return fmt.Errorf("%d webs, fresh %d", after.NumRegs(), fresh.NumRegs())
	}
	for r := ir.Reg(0); int(r) < fresh.NumRegs(); r++ {
		if after.RegClass(r) != fresh.RegClass(r) || after.RegFlags(r) != fresh.RegFlags(r) {
			return fmt.Errorf("v%d: class %s flags %d, fresh %s %d",
				r, after.RegClass(r), after.RegFlags(r), fresh.RegClass(r), fresh.RegFlags(r))
		}
	}
	if !reflect.DeepEqual(after.Params, fresh.Params) {
		return fmt.Errorf("params %v, fresh %v", after.Params, fresh.Params)
	}
	if len(after.Blocks) != len(fresh.Blocks) {
		return fmt.Errorf("%d blocks, fresh %d", len(after.Blocks), len(fresh.Blocks))
	}
	for i, b := range after.Blocks {
		fb := fresh.Blocks[i]
		switch {
		case !reflect.DeepEqual(b.Instrs, fb.Instrs):
			return fmt.Errorf("b%d: instructions differ from the fresh start", i)
		case !lv.In[i].Equal(freshLv.In[i]) || !lv.Out[i].Equal(freshLv.Out[i]):
			return fmt.Errorf("b%d: carried in %v out %v, fresh in %v out %v",
				i, lv.In[i], lv.Out[i], freshLv.In[i], freshLv.Out[i])
		case b.Depth != fb.Depth:
			return fmt.Errorf("b%d: carried depth %d, fresh %d", i, b.Depth, fb.Depth)
		}
	}
	if !reflect.DeepEqual(info, freshInfo) {
		return fmt.Errorf("carried CFG analysis differs from a fresh one")
	}
	return nil
}

// TestCarriedStartMatchesFresh holds every pass that starts from the
// last pass's analysis, irc's worklist round included, to a fresh
// start on a copy of the same code: a full liveness solve and
// renumbering must give the same instructions, registers and In and
// Out sets, and cfg.Analyze the same analysis and depths. It runs on
// the suite, 100 generated CFGs and a 60-loop unit, under briggs,
// chaitin, mb, pcolor, briggs on the machine model, irc (whose spill
// rounds are briggs under ConservativeCoalesce) and briggs with
// Rematerialize, at (16,8), (8,4), (6,4) and (4,4). Allocations that
// fail (mb strands a spill temporary on some units, and every family
// fails on a few at (4,4)) are checked up to the failing pass.
func TestCarriedStartMatchesFresh(t *testing.T) {
	var label string
	checked, wrong := 0, 0
	restore := alloc.CheckCarriedStarts(func(before, after *ir.Func, lv *dataflow.Liveness, info *cfg.Info) {
		checked++
		if err := diffFresh(before, after, lv, info); err != nil {
			if wrong++; wrong <= 5 {
				t.Errorf("%s: %v", label, err)
			}
		}
	})
	defer restore()

	configs := []struct {
		name string
		set  func(*alloc.Options)
	}{
		{"briggs", func(*alloc.Options) {}},
		{"chaitin", func(o *alloc.Options) { o.Heuristic = color.Chaitin }},
		{"mb", func(o *alloc.Options) { o.Heuristic = color.MatulaBeck }},
		{"pcolor", func(o *alloc.Options) { o.UsePColor = true; o.PColorSeed = 1 }},
		{"machine", func(o *alloc.Options) {
			o.Machine = machine.ForTarget(target.RTPC().WithGPR(o.KInt).WithFPR(o.KFloat))
		}},
		{"irc", func(o *alloc.Options) { o.Heuristic = color.IRC }},
		{"remat", func(o *alloc.Options) { o.Rematerialize = true }},
	}
	us := carryUnits(t)
	failed := 0
	for _, c := range configs {
		before := checked
		for _, k := range [][2]int{{16, 8}, {8, 4}, {6, 4}, {4, 4}} {
			opt := alloc.DefaultOptions()
			opt.KInt, opt.KFloat = k[0], k[1]
			c.set(&opt)
			for _, u := range us {
				label = fmt.Sprintf("%s under %s at %v", u.name, c.name, k)
				if _, err := alloc.Run(u.prog.Func(u.routine), opt); err != nil {
					failed++
				}
			}
		}
		if checked == before {
			t.Errorf("no carried pass under %s; the oracle checked nothing there", c.name)
		}
	}
	t.Logf("%d carried starts checked; %d allocations failed", checked, failed)
	if wrong > 0 {
		t.Fatalf("%d of %d carried starts differ from a fresh one", wrong, checked)
	}
}

// TestIRCStartsFromFinalPass holds the graph and costs irc's worklist
// round takes over from its baseline's final pass to a fresh start on
// a copy of the same function: renumbering, a liveness solve,
// cfg.Analyze, a graph build and the cost estimate must give the same
// function, the same adjacency rows in the same order, which the
// worklist machine tie-breaks on, and the same costs. The liveness
// and CFG analysis the round carries are TestCarriedStartMatchesFresh's
// to check. It runs on the suite at (16,8) and (8,4), plain, on the
// machine model and with rematerialization.
func TestIRCStartsFromFinalPass(t *testing.T) {
	var label string
	var opt alloc.Options
	checked, wrong := 0, 0
	restore := alloc.CheckIRCStarts(func(work *ir.Func, mg *ig.MachineGraph, costs []float64) {
		checked++
		if err := diffFreshStart(work, mg, costs, opt); err != nil {
			if wrong++; wrong <= 5 {
				t.Errorf("%s: %v", label, err)
			}
		}
	})
	defer restore()

	configs := []struct {
		name string
		set  func(*alloc.Options)
	}{
		{"plain", func(*alloc.Options) {}},
		{"machine", func(o *alloc.Options) {
			o.Machine = machine.ForTarget(target.RTPC().WithGPR(o.KInt).WithFPR(o.KFloat))
		}},
		{"remat", func(o *alloc.Options) { o.Rematerialize = true }},
	}
	us := suiteUnits(t)
	for _, c := range configs {
		for _, k := range [][2]int{{16, 8}, {8, 4}} {
			opt = alloc.DefaultOptions()
			opt.Heuristic = color.IRC
			opt.KInt, opt.KFloat = k[0], k[1]
			c.set(&opt)
			for _, u := range us {
				label = fmt.Sprintf("%s under irc/%s at %v", u.name, c.name, k)
				if _, err := alloc.Run(u.prog.Func(u.routine), opt); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
	t.Logf("%d worklist round starts checked", checked)
	if wrong > 0 {
		t.Fatalf("%d of %d worklist round starts differ from a fresh one", wrong, checked)
	}
	if checked == 0 {
		t.Fatal("no worklist round started; the oracle checked nothing")
	}
}

// diffFreshStart analyzes a copy of work afresh, as a pass that starts
// fresh under opt would, and reports the first way the graph mg and
// the costs differ from that analysis's.
func diffFreshStart(work *ir.Func, mg *ig.MachineGraph, costs []float64, opt alloc.Options) error {
	fresh := work.Clone()
	lv := liverange.Renumber(fresh)
	cfg.Analyze(fresh)
	for i, b := range work.Blocks {
		if !reflect.DeepEqual(b.Instrs, fresh.Blocks[i].Instrs) {
			return fmt.Errorf("b%d: a fresh renumbering changes the instructions", i)
		}
	}
	var want *ig.MachineGraph
	if opt.Machine != nil {
		want = ig.BuildWithMachine(fresh, lv, opt.Machine, nil)
	} else {
		want = ig.WrapPlain(ig.BuildWithLiveness(fresh, lv, 0, nil))
	}
	if mg.NumNodes() != want.NumNodes() || mg.NumVRegs != want.NumVRegs || mg.NumEdges() != want.NumEdges() {
		return fmt.Errorf("%d nodes (%d virtual), %d edges; fresh %d (%d), %d",
			mg.NumNodes(), mg.NumVRegs, mg.NumEdges(), want.NumNodes(), want.NumVRegs, want.NumEdges())
	}
	if !reflect.DeepEqual(mg.Pre, want.Pre) {
		return fmt.Errorf("precolored nodes differ from a fresh build")
	}
	for a := int32(0); int(a) < mg.NumNodes(); a++ {
		if mg.Class(a) != want.Class(a) || !reflect.DeepEqual(mg.Neighbors(a), want.Neighbors(a)) {
			return fmt.Errorf("node %d: %s row %v, fresh %s %v", a, mg.Class(a), mg.Neighbors(a), want.Class(a), want.Neighbors(a))
		}
	}
	var wantCosts []float64
	if opt.Rematerialize {
		rematOK, _ := spill.Remat(fresh)
		wantCosts = spill.CostsRemat(fresh, opt.CostParams, rematOK)
	} else {
		wantCosts = spill.Costs(fresh, opt.CostParams)
	}
	if !reflect.DeepEqual(costs, wantCosts) {
		return fmt.Errorf("costs %v, fresh %v", costs, wantCosts)
	}
	return nil
}

// splitGuardFunc builds a unit whose post-coalesce renumbering splits a
// register, and where a part of that register can then merge:
//
//	b0: x1..x4 = 1..4; q = 0; brif q == q -> b1, b2
//	b1: a = 10; c = a; br b3
//	b2: c = 7; a = 20; br b3
//	b3: b = a; s = x1+x2+x3+x4+c+c+c; ret s
//
// Only the dead copy b = a reads both definitions of a, and c = a
// interferes with a only through the second one, where c is live. So
// the first round merges b = a and cannot merge c = a; renumbering then
// splits a in two, and the part the copy reads no longer interferes
// with c. The clique {x1..x4, c, a} at b2's definition of a makes the
// first pass spill at five integer registers.
func splitGuardFunc() *ir.Func {
	f := &ir.Func{Name: "GUARD", HasRet: true, RetCls: ir.ClassInt}
	reg := func() ir.Reg { return f.NewReg(ir.ClassInt) }
	x := []ir.Reg{reg(), reg(), reg(), reg()}
	q, a, b, c, s := reg(), reg(), reg(), reg(), reg()
	in := func(op ir.Op, dst, a, b ir.Reg, imm int64) ir.Instr {
		return ir.Instr{Op: op, Dst: dst, A: a, B: b, C: ir.NoReg, Imm: imm}
	}
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	for i, r := range x {
		b0.Instrs = append(b0.Instrs, in(ir.OpConst, r, ir.NoReg, ir.NoReg, int64(i+1)))
	}
	b0.Instrs = append(b0.Instrs,
		in(ir.OpConst, q, ir.NoReg, ir.NoReg, 0),
		ir.Instr{Op: ir.OpBrIf, Dst: ir.NoReg, A: q, B: q, C: ir.NoReg, Cmp: ir.CmpEQ})
	b0.Succs = []int{1, 2}
	b1.Instrs = []ir.Instr{
		in(ir.OpConst, a, ir.NoReg, ir.NoReg, 10),
		in(ir.OpMove, c, a, ir.NoReg, 0),
		in(ir.OpBr, ir.NoReg, ir.NoReg, ir.NoReg, 0),
	}
	b1.Succs = []int{3}
	b2.Instrs = []ir.Instr{
		in(ir.OpConst, c, ir.NoReg, ir.NoReg, 7),
		in(ir.OpConst, a, ir.NoReg, ir.NoReg, 20),
		in(ir.OpBr, ir.NoReg, ir.NoReg, ir.NoReg, 0),
	}
	b2.Succs = []int{3}
	b3.Instrs = []ir.Instr{
		in(ir.OpMove, b, a, ir.NoReg, 0),
		in(ir.OpAdd, s, x[0], x[1], 0),
		in(ir.OpAdd, s, s, x[2], 0),
		in(ir.OpAdd, s, s, x[3], 0),
		in(ir.OpAdd, s, s, c, 0),
		in(ir.OpAdd, s, s, c, 0),
		in(ir.OpAdd, s, s, c, 0),
		in(ir.OpRet, ir.NoReg, s, ir.NoReg, 0),
	}
	f.RecomputePreds()
	return f
}

// TestSplitRenumberingRunsTheRound: a carried pass skips its
// aggressive coalescing round only when no renumbering since the last
// round split a register. In splitGuardFunc the renumbering after the
// first pass's merge splits a, so the second pass, although it starts
// from the carried analysis, must run the round, and the round merges
// c with a part of a. Skipping it would have lost that merge.
func TestSplitRenumberingRunsTheRound(t *testing.T) {
	f := splitGuardFunc()
	if err := ir.Validate(f); err != nil {
		t.Fatal(err)
	}
	var obsv capture
	opt := alloc.DefaultOptions()
	opt.KInt = 5
	opt.Observer = &obsv
	res, err := alloc.Run(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Passes) < 2 || res.Passes[0].Spilled == 0 {
		t.Fatalf("test premise broken: the first pass must spill (passes %+v)", res.Passes)
	}
	if got := res.Passes[0].CoalescedMoves; got != 1 {
		t.Fatalf("test premise broken: the first pass merged %d moves, want only the dead copy", got)
	}
	rounds := map[int]int64{}
	liveness := map[int]int64{}
	for _, ev := range obsv.events {
		if ev.Kind != obs.KindCounter {
			continue
		}
		switch ev.Name {
		case "coalesce.rounds":
			rounds[ev.Pass] += ev.Value
		case "analysis.liveness_runs":
			liveness[ev.Pass] += ev.Value
		}
	}
	if liveness[1] != 0 {
		t.Fatalf("test premise broken: pass 1 solved liveness %d times; it should start from the carried analysis", liveness[1])
	}
	if rounds[1] == 0 {
		t.Fatal("pass 1 skipped its coalescing round after a renumbering that split a register")
	}
	if got := res.Passes[1].CoalescedMoves; got != 1 {
		t.Fatalf("pass 1 merged %d moves, want 1: c with its part of a", got)
	}
}
