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
// The reference answers on a graph built afresh, at the round's first
// query, from the function as rewritten so far and a full liveness
// solve, so the graph the run carries is held to it too. Queries must
// come from one goroutine at a time.
func CheckBriggsQueries(check func(got, want bool)) (restore func()) {
	briggsObserver = func(f *ir.Func) func(dst, src ir.Reg, k int, ok bool) {
		var g *ig.Graph
		return func(dst, src ir.Reg, k int, ok bool) {
			if g == nil {
				g = ig.BuildWithLiveness(f, dataflow.ComputeLiveness(f), 0, nil)
			}
			check(ok, briggsTestRef(g, dst, src, k))
		}
	}
	return func() { briggsObserver = nil }
}

// CheckCarriedGraphs calls check at the start of every conservative
// round that follows a merge, until restore is called, with f as
// rewritten so far and the graph the run carries into the round:
// rows[r] lists r's neighbors in no particular order. f may be a copy,
// valid until the round ends; check must change neither. Rounds must
// come from one goroutine at a time.
func CheckCarriedGraphs(check func(f *ir.Func, rows [][]int32)) (restore func()) {
	graphObserver = check
	return func() { graphObserver = nil }
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

// CheckSkippedRounds calls check with the f and lv of every round a
// caller marks Skipped until restore is called. Rounds must come from
// one goroutine at a time.
func CheckSkippedRounds(check func(f *ir.Func, lv *dataflow.Liveness)) (restore func()) {
	skipObserver = check
	return func() { skipObserver = nil }
}
