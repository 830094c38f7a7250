package ig

import (
	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
	"regalloc/internal/machine"
)

// MatchesReference reports the first way g, built from f and lv on
// model m (nil for a plain build), differs from the legacy adjacency
// its builder's per-pair reference stream gives.
var MatchesReference = matchesReference

// ObserveBuilds hands check every graph BuildWithLiveness and
// BuildWithMachine return, with the function and liveness it was
// built from, until restore is called. Builds must come from one
// goroutine at a time.
func ObserveBuilds(check func(f *ir.Func, lv *dataflow.Liveness, m *machine.Model, g *Graph)) (restore func()) {
	buildObserver = check
	return func() { buildObserver = nil }
}
