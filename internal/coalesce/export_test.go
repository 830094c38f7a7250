package coalesce

import (
	"regalloc/internal/dataflow"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
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

// CheckInterferenceQueries hands check the walk's answer and the full
// interference graph's answer, built on the same function and
// liveness, of every aggressive query run until restore is called.
// Queries must come from one goroutine at a time.
func CheckInterferenceQueries(check func(got, want bool)) (restore func()) {
	interferenceObserver = func(f *ir.Func, lv *dataflow.Liveness) func(dst, src ir.Reg, hit bool) {
		// One graph per round, built at its first query: f and lv
		// keep their pointers across rounds (lv is recomputed in
		// place), so only the round says when they changed.
		var g *ig.Graph
		return func(dst, src ir.Reg, hit bool) {
			if g == nil {
				g = ig.BuildWithLiveness(f, lv, 0, nil)
			}
			check(hit, g.Interfere(int32(dst), int32(src)))
		}
	}
	return func() { interferenceObserver = nil }
}
