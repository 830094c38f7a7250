package color

import (
	"testing"

	"regalloc/internal/ig"
	"regalloc/internal/ir"
)

// TestSimplifySelectPrecolored: nodes with fixed colors never enter
// the stack or the spill set, and selection colors the ordinary nodes
// around them. The stack check reads simplify's result, which Run
// does not expose: a stacked precolored node could keep its color
// and still take its degree pressure off its neighbors.
func TestSimplifySelectPrecolored(t *testing.T) {
	// v0 and v1 are ordinary; p2 (color 0) and p3 (color 1) are
	// precolored. Edges: v0–p2, v1–p3. With k=2 and lowest-first
	// selection the assignment is forced around the fixed colors:
	// v0=1, v1=0.
	g := ig.New([]ir.Class{ir.ClassInt, ir.ClassInt, ir.ClassInt, ir.ClassInt})
	pre := []int16{-1, -1, 0, 1}
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	cost := []float64{1, 1}
	k := NumColors(2, 2)
	for _, h := range []Heuristic{Chaitin, Briggs, MatulaBeck} {
		var sc Scratch
		sr := simplify(&sc, g, pre, cost, k, h, CostOverDegree, nil)
		for _, n := range sr.Stack {
			if n >= 2 {
				t.Fatalf("%s: precolored node %d was stacked", h, n)
			}
		}
		out := Run(&sc, g, pre, cost, k, h, CostOverDegree, nil)
		if len(out.Spilled) > 0 {
			t.Fatalf("%s: spilled %v on a colorable graph", h, out.Spilled)
		}
		colors := out.Colors
		if colors[0] != 1 || colors[1] != 0 {
			t.Fatalf("%s: colors = %v, want v0=1 v1=0", h, colors[:2])
		}
		if colors[2] != 0 || colors[3] != 1 {
			t.Fatalf("%s: precolored nodes moved: %v", h, colors[2:])
		}
	}
}
