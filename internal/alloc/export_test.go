package alloc

import (
	"context"

	"regalloc/internal/cfg"
	"regalloc/internal/color"
	"regalloc/internal/dataflow"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
	"regalloc/internal/spill"
)

// CheckCarriedStarts hands check every carried pass start run until
// restore is called: a copy of the function before its renumbering,
// the function after it, and the liveness and CFG analysis the pass
// carries. Allocations must come from one goroutine at a time.
func CheckCarriedStarts(check func(before, after *ir.Func, lv *dataflow.Liveness, info *cfg.Info)) (restore func()) {
	carryObserver = check
	return func() { carryObserver = nil }
}

// CheckIRCStarts hands check the function, graph and costs every irc
// worklist round starts from, until restore is called. check runs
// before the round changes the function. Allocations must come from
// one goroutine at a time.
func CheckIRCStarts(check func(work *ir.Func, mg *ig.MachineGraph, costs []float64)) (restore func()) {
	ircStartObserver = check
	return func() { ircStartObserver = nil }
}

// PColorPass is one pass of a UsePColor cycle run by hand: the
// function the pass allocates, and the graph and costs its Build left.
type PColorPass struct {
	Work  *ir.Func
	G     *ig.Graph
	Costs []float64
	opt   Options
	b     *built
}

// FirstPColorPass builds pass 0 of opt's cycle on a clone of f.
func FirstPColorPass(f *ir.Func, opt Options) (*PColorPass, error) {
	work := f.Clone()
	b, err := build(context.Background(), work, nil, opt, nil)
	if err != nil {
		return nil, err
	}
	return &PColorPass{Work: work, G: b.g, Costs: b.costs, opt: opt, b: b}, nil
}

// Color is the pass's coloring step, pcolorStep, traced on tr.
func (p *PColorPass) Color(tr *obs.Tracer) color.Outcome {
	return pcolorStep(p.Work, p.G, p.Costs, p.opt.K(), p.opt, tr)
}

// SpillsTemp reports whether spilled holds a spill temporary, which
// fails the cycle.
func (p *PColorPass) SpillsTemp(spilled []int32) bool {
	for _, n := range spilled {
		if p.Work.RegFlags(ir.Reg(n))&ir.FlagSpillTemp != 0 {
			return true
		}
	}
	return false
}

// Next spills spilled as the cycle's spill path does, with plain spill
// code and the liveness carried past it, and builds the next pass.
func (p *PColorPass) Next(spilled []int32) (*PColorPass, error) {
	regs := make([]ir.Reg, len(spilled))
	for i, n := range spilled {
		regs[i] = ir.Reg(n)
	}
	spill.InsertCode(p.Work, regs)
	spill.CarryLiveness(p.b.pc.lv, regs)
	b, err := build(context.Background(), p.Work, p.b.pc, p.opt, nil)
	if err != nil {
		return nil, err
	}
	return &PColorPass{Work: p.Work, G: b.g, Costs: b.costs, opt: p.opt, b: b}, nil
}
