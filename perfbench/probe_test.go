package main

import (
	"context"
	"testing"

	"regalloc"
	"regalloc/internal/alloc"
	"regalloc/internal/ir"
	"regalloc/internal/workloads"
)

// TestProbeReplaysDriver holds the layer probe to the allocator it
// replays: for the units with the most Build and spill work, every
// pass's counts equal alloc.RunContext's PassStats exactly, at the
// paper's register file and at the spill-heavy one. If the driver's
// Figure 4 cycle changes, this fails until the probe follows it.
func TestProbeReplaysDriver(t *testing.T) {
	units := make(map[string]*ir.Func)
	for _, w := range []workloads.Workload{workloads.SVD(), workloads.Cedeta()} {
		prog, err := regalloc.Compile(w.Source)
		if err != nil {
			t.Fatalf("compile %s: %v", w.Program, err)
		}
		for _, f := range prog.IR.Funcs {
			units[f.Name] = f
		}
	}
	for _, r := range []regs{{16, 8}, {8, 4}} {
		for _, name := range []string{"SVD", "GRADNT", "HSSIAN", "DQRDC"} {
			f := units[name]
			if f == nil {
				t.Fatalf("no unit %s in the corpus", name)
			}
			res, err := alloc.RunContext(context.Background(), f, r.options())
			if err != nil {
				t.Fatalf("%s at %v: %v", name, r, err)
			}
			got, err := probeUnit(f, r.options(), nil, -1)
			if err != nil {
				t.Fatalf("probe %s at %v: %v", name, r, err)
			}
			if len(got) != len(res.Passes) {
				t.Fatalf("%s at %v: probe ran %d passes, the allocator %d", name, r, len(got), len(res.Passes))
			}
			for i, p := range res.Passes {
				want := probeCounts{
					LiveRanges:     p.LiveRanges,
					Edges:          p.Edges,
					CoalescedMoves: p.CoalescedMoves,
					Spilled:        p.Spilled,
					Loads:          p.LoadsInserted,
					Stores:         p.StoresInserted,
				}
				if got[i] != want {
					t.Errorf("%s at %v, pass %d: probe %+v, allocator %+v", name, r, i+1, got[i], want)
				}
			}
		}
	}
}
