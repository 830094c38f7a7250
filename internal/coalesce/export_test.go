package coalesce

import (
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
