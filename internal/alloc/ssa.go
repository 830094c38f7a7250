package alloc

import (
	"context"
	"fmt"

	"regalloc/internal/ir"
	"regalloc/internal/obs"
	"regalloc/internal/ssa"
)

// runSSA dispatches opt.Heuristic == color.SSA to the SSA-form
// chordal allocator (internal/ssa) and maps its phase statistics onto
// the Figure 4 pass shape the rest of the system reports: one
// PassStats per pre-spill round carrying that round's spill work, and
// a final pass carrying the coloring time; pass 0 carries all the
// build time (construction and the one graph build) and all the spill
// time. The result is re-checked with the program-level verifier
// before it is returned — the SSA path skips color.Verify's graph
// check (its coloring is optimal by construction, and lowering adds
// scratch registers the analysis graph never saw), so the stronger
// oracle runs instead.
func runSSA(ctx context.Context, f *ir.Func, opt Options, tr *obs.Tracer) (*Result, error) {
	work := f.Clone()
	sres, err := ssa.Allocate(ctx, work, opt.K(), opt.CostParams, tr)
	if err != nil {
		return nil, err
	}
	if err := VerifyAssignment(sres.Func, sres.Colors); err != nil {
		return nil, fmt.Errorf("alloc: %s: ssa: %w", f.Name, err)
	}
	res := &Result{Options: opt, Func: sres.Func, Colors: sres.Colors}
	st := &sres.Stats
	for _, rd := range st.Rounds {
		res.Passes = append(res.Passes, PassStats{
			Spilled:        rd.Spilled,
			SpillCost:      rd.SpillCost,
			LoadsInserted:  rd.Loads,
			StoresInserted: rd.Stores,
			LiveRanges:     st.LiveRanges,
			Edges:          st.Edges,
		})
	}
	res.Passes = append(res.Passes, PassStats{
		Color:      st.Color + st.Lower,
		LiveRanges: st.LiveRanges,
		Edges:      st.Edges,
	})
	res.Passes[0].Build = st.Build
	res.Passes[0].Spill = st.Spill
	return res, nil
}
