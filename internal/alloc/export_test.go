package alloc

import (
	"regalloc/internal/cfg"
	"regalloc/internal/dataflow"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
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
