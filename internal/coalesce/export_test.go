package coalesce

import (
	"regalloc/internal/dataflow"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
)

// RunAggressiveRef and RunConservativeRef are the reference round
// loops.
var (
	RunAggressiveRef   = runAggressiveRef
	RunConservativeRef = runConservativeRef
)

// CheckBriggsQueries hands check the fast answer and the reference
// answer of every conservative-test query run until restore is called.
// Queries must come from one goroutine at a time.
func CheckBriggsQueries(check func(got, want bool)) (restore func()) {
	briggsObserver = func(g *ig.Graph, dst, src ir.Reg, k int, ok bool) {
		check(ok, briggsTestRef(g, dst, src, k))
	}
	return func() { briggsObserver = nil }
}

// CheckRounds calls start at the beginning of every round run until
// restore is called, with f as rewritten so far and the liveness the
// round answers on. The function start returns sees each interference
// answer the round uses, and whether the round asked it afresh or kept
// it from an earlier round. f may be a copy: it stays valid until the
// round ends, and start must not change it or lv. Rounds must come
// from one goroutine at a time.
func CheckRounds(start func(f *ir.Func, lv *dataflow.Liveness) func(dst, src ir.Reg, hit, fresh bool)) (restore func()) {
	roundObserver = start
	return func() { roundObserver = nil }
}

// CheckRuns calls start as every run until restore is called begins,
// with the f, lv and conservativeK it was handed, and the function
// start returns when the run returns, with its Stats. Runs must come
// from one goroutine at a time.
func CheckRuns(start func(f *ir.Func, lv *dataflow.Liveness, conservativeK func(ir.Class) int) func(Stats)) (restore func()) {
	runObserver = start
	return func() { runObserver = nil }
}
