package main

import (
	"fmt"

	"regalloc/internal/alloc"
	"regalloc/internal/cfg"
	"regalloc/internal/coalesce"
	"regalloc/internal/color"
	"regalloc/internal/dataflow"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/liverange"
	"regalloc/internal/spill"
)

// probeCounts is the work one replayed pass did; the fields mirror
// alloc.PassStats.
type probeCounts struct {
	LiveRanges     int
	Edges          int
	CoalescedMoves int
	Spilled        int
	Loads          int
	Stores         int
}

// probeUnit is the layer probe. alloc.RunContext times its whole
// Build box as one number, so the probe replays the allocator's
// Figure 4 cycle on a clone of f, calling each layer's public entry
// point in RunContext's order and giving each call its own span:
// renumber, liveness, cfg, coalesce, graph and costs (the Build box),
// then simplify, select and spill_insert. It supports the options the
// compile workloads use: a Briggs or Chaitin heuristic with no
// machine model, rematerialization, splitting or pcolor engine.
// probe_test.go holds its per-pass counts equal to Result.Passes.
func probeUnit(f *ir.Func, opt alloc.Options, rec *recorder, parent int) ([]probeCounts, error) {
	if opt.Machine != nil || opt.Rematerialize || opt.Split || opt.UsePColor ||
		(opt.Heuristic != color.Briggs && opt.Heuristic != color.Chaitin) {
		return nil, fmt.Errorf("probe: %s: unsupported options", f.Name)
	}
	maxPasses := opt.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 64
	}
	layer := func(name string, fn func()) {
		id := rec.begin(name, parent)
		fn()
		rec.end(id)
	}
	work := f.Clone()
	kf := opt.K()
	var sc color.Scratch
	var passes []probeCounts
	for pass := 0; pass < maxPasses; pass++ {
		var pc probeCounts
		var lv *dataflow.Liveness
		var g *ig.Graph
		layer("renumber", func() { liverange.Renumber(work) })
		layer("liveness", func() { lv = dataflow.ComputeLiveness(work) })
		layer("cfg", func() { cfg.Analyze(work) }) // stamps the loop depths costs read
		if opt.Coalesce {
			var ck func(ir.Class) int
			if opt.ConservativeCoalesce {
				ck = kf
			}
			var st coalesce.Stats
			layer("coalesce", func() { st, g = coalesce.RunWithLiveness(work, lv, ck, opt.Workers, nil) })
			pc.CoalescedMoves = st.Moves
			if st.Moves > 0 {
				layer("renumber", func() { liverange.Renumber(work) })
				layer("liveness", func() { lv = dataflow.ComputeLiveness(work) })
				g = nil
			}
		}
		if g == nil {
			layer("graph", func() { g = ig.BuildWithLiveness(work, lv, opt.Workers, nil) })
		}
		var costs []float64
		layer("costs", func() { costs = spill.Costs(work, opt.CostParams) })
		pc.LiveRanges, pc.Edges = work.NumRegs(), g.NumEdges()

		var sr *color.SimplifyResult
		layer("simplify", func() { sr = color.SimplifyInto(&sc, g, costs, kf, opt.Heuristic, opt.Metric, nil) })
		toSpill := sr.SpillMarked
		if opt.Heuristic != color.Chaitin || len(toSpill) == 0 {
			layer("select", func() { _, toSpill = color.SelectInto(&sc, g, sr, kf, opt.Heuristic != color.Chaitin, nil) })
			if len(toSpill) == 0 {
				return append(passes, pc), nil
			}
		}
		spilled := make([]ir.Reg, len(toSpill))
		for i, n := range toSpill {
			if work.RegFlags(ir.Reg(n))&ir.FlagSpillTemp != 0 {
				return nil, fmt.Errorf("probe: %s: a spill temporary must itself spill", f.Name)
			}
			spilled[i] = ir.Reg(n)
		}
		pc.Spilled = len(spilled)
		var st spill.Stats
		layer("spill_insert", func() { st = spill.InsertCode(work, spilled) })
		pc.Loads, pc.Stores = st.Loads, st.Stores
		passes = append(passes, pc)
	}
	return nil, fmt.Errorf("probe: %s: no convergence after %d passes", f.Name, maxPasses)
}

// probeAll replays every unit of funcs as one trace of its own.
func probeAll(funcs []*ir.Func, opt alloc.Options, rec *recorder) error {
	rec.nextTrace()
	root := rec.begin("probe", -1)
	defer rec.end(root)
	for _, f := range funcs {
		if _, err := probeUnit(f, opt, rec, root); err != nil {
			return err
		}
	}
	return nil
}
