package ssa

import (
	"fmt"

	"regalloc/internal/color"
	"regalloc/internal/ir"
)

// Color assigns each definition, in dominance order, the lowest color
// unused by its already-colored interference neighbors: color's
// select phase, replaying that order as its stack. Dominance order is
// the reverse of a perfect elimination order of the chordal SSA
// interference graph, so this is optimal: it uses exactly MAXLIVE
// colors per class, and after pre-spilling (MAXLIVE ≤ K) it cannot
// fail. Registers that are never defined (pre-rename husks and
// spilled values) keep color.NoColor; no instruction mentions them.
func Color(s *Func, a *Analysis, k color.K) ([]int16, error) {
	// Select reinserts from the end of its stack.
	stack := make([]int32, len(a.Order))
	for i, r := range a.Order {
		stack[len(stack)-1-i] = int32(r)
	}
	var sc color.Scratch
	colors, uncolored := color.SelectInto(&sc, a.G, &color.SimplifyResult{Stack: stack}, k, true, nil)
	if len(uncolored) > 0 {
		r := ir.Reg(uncolored[0])
		return nil, fmt.Errorf("ssa: %s: v%d found no free color among %d %s registers after pre-spilling",
			s.F.Name, r, k(s.F.RegClass(r)), s.F.RegClass(r))
	}
	return colors, nil
}
