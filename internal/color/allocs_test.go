package color_test

import (
	"testing"

	"regalloc/internal/color"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
)

// allocGraph builds a moderately dense mixed-class graph with some
// spill pressure at the given k, so the pinned pass exercises every
// branch of the hot path: bucket scans, stuck spill choices, and the
// optimistic select with real uncolored nodes.
func allocGraph(n int) (*ig.Graph, []float64) {
	classes := make([]ir.Class, n)
	for i := range classes {
		if i%4 == 3 {
			classes[i] = ir.ClassFloat
		}
	}
	g := ig.New(classes)
	s := uint64(2026)
	for i := 0; i < 8*n; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		g.AddEdge(int32(s%uint64(n)), int32((s>>24)%uint64(n)))
	}
	cost := make([]float64, n)
	for i := range cost {
		cost[i] = float64(1 + i%17)
	}
	return g, cost
}

// TestColoringPassAllocs pins the zero-allocation property of the
// steady-state coloring pass: with a warm Scratch and a nil tracer,
// Run on a fixed graph must not allocate at all, nor must the
// SimplifyInto + SelectInto pair the benchmark's probe times apart.
// This is what keeps per-pass cost flat on million-node graphs — any
// regression here (a closure that escapes, a slice rebuilt per call)
// multiplies across the Figure 4 cycle and the portfolio racer.
func TestColoringPassAllocs(t *testing.T) {
	g, cost := allocGraph(600)
	// Finalize the CSR outside the measured region, as BuildWithLiveness
	// does for real graphs.
	_ = g.Neighbors(0)
	sc := new(color.Scratch)
	for _, h := range []color.Heuristic{color.Chaitin, color.Briggs, color.MatulaBeck} {
		h := h
		for _, pass := range []struct {
			name string
			run  func()
		}{
			{"Run", func() { color.Run(sc, g, nil, cost, kAll(6), h, color.CostOverDegree, nil) }},
			{"SimplifyInto+SelectInto", func() {
				sr := color.SimplifyInto(sc, g, cost, kAll(6), h, color.CostOverDegree, nil)
				color.SelectInto(sc, g, sr, kAll(6), h != color.Chaitin, nil)
			}},
		} {
			// Warm the scratch so the grow-to-fit paths have run.
			pass.run()
			if allocs := testing.AllocsPerRun(20, pass.run); allocs != 0 {
				t.Errorf("%s, %s: steady-state coloring pass allocates %.1f objects/run, want 0", h, pass.name, allocs)
			}
		}
	}
}

// TestWorklistInitAllocs pins the companion property one layer down:
// re-Initing a warm Worklist on the same graph is allocation-free.
func TestWorklistInitAllocs(t *testing.T) {
	g, _ := allocGraph(400)
	_ = g.Neighbors(0)
	var w ig.Worklist
	w.Init(g, ir.ClassInt)
	allocs := testing.AllocsPerRun(20, func() {
		w.Init(g, ir.ClassInt)
		for {
			n := w.MinDegreeNode()
			if n < 0 {
				break
			}
			w.Remove(n)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Worklist.Init+drain allocates %.1f objects/run, want 0", allocs)
	}
}
