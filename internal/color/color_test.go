package color_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"regalloc/internal/color"
	"regalloc/internal/graphgen"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
)

func kAll(k int) color.K { return func(ir.Class) int { return k } }

// simplifyAndSelect runs the full heuristic and returns the colors
// and the set of spilled nodes.
func simplifyAndSelect(g *ig.Graph, cost []float64, k int, h color.Heuristic) ([]int16, []int32) {
	out := color.Run(nil, g, nil, cost, kAll(k), h, color.CostOverDegree, nil)
	return out.Colors, out.Spilled
}

// TestFigure2 reproduces the paper's Figure 2: a five-node graph
// that simplification 3-colors with no spilling under every
// heuristic. The graph is the classic example: a triangle {b, d, e}
// with pendant structure on a and c.
func TestFigure2(t *testing.T) {
	const a, b, c, d, e = 0, 1, 2, 3, 4
	classes := make([]ir.Class, 5)
	costs := []float64{100, 100, 100, 100, 100}
	edges := [][2]int32{{a, b}, {a, d}, {b, c}, {b, d}, {b, e}, {c, e}, {d, e}}
	for _, h := range []color.Heuristic{color.Chaitin, color.Briggs, color.MatulaBeck} {
		g := ig.New(classes)
		for _, ed := range edges {
			g.AddEdge(ed[0], ed[1])
		}
		colors, spilled := simplifyAndSelect(g, costs, 3, h)
		if len(spilled) != 0 {
			t.Fatalf("%s: spilled %v on a 3-colorable graph with k=3", h, spilled)
		}
		if err := color.Verify(g, colors, kAll(3)); err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		for n := int32(0); n < 5; n++ {
			if colors[n] == color.NoColor {
				t.Fatalf("%s: node %d left uncolored", h, n)
			}
		}
	}
}

// events records a tracer's stream as "kind phase" strings, with the
// counter's name in place of its phase.
type events []string

func (e *events) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindCounter:
		*e = append(*e, ev.Kind.String()+" "+ev.Name)
	case obs.KindSpanBegin, obs.KindSpanEnd:
		*e = append(*e, ev.Kind.String()+" "+ev.Phase.String())
	default:
		*e = append(*e, ev.Kind.String())
	}
}

// TestFigure3 reproduces the paper's Figure 3: the 4-cycle
// w-x-y-z-w needs only two colors, but with k=2 Chaitin's heuristic
// immediately gets stuck (every node has degree 2) and spills, while
// the optimistic heuristic 2-colors it. Run owns that rule, so each
// heuristic's event stream is checked too: one span per phase with
// the scan-step counter between them, and no select span for
// Chaitin. A pooled run must return what a scratch run does.
func TestFigure3(t *testing.T) {
	g, costs := graphgen.Cycle(4)
	for _, tc := range []struct {
		h    color.Heuristic
		want []string
	}{
		// Chaitin spills (the paper: "we have to insert spill code,
		// rebuild the interference graph, and try again").
		{color.Chaitin, []string{
			"span_begin simplify", "spill_decision", "span_end simplify",
			"counter simplify.scan_steps"}},
		// Briggs colors it with no spills: the node removed while
		// stuck gets a color after all.
		{color.Briggs, []string{
			"span_begin simplify", "spill_decision", "span_end simplify",
			"counter simplify.scan_steps",
			"span_begin color", "color_reuse", "span_end color"}},
		// Matula–Beck also colors it (same optimistic select).
		{color.MatulaBeck, []string{
			"span_begin simplify", "span_end simplify",
			"counter simplify.scan_steps",
			"span_begin color", "span_end color"}},
	} {
		var got events
		var sc color.Scratch
		out := color.Run(&sc, g, nil, costs, kAll(2), tc.h, color.CostOverDegree, obs.New(&got, "c4"))
		if strings.Join(got, ", ") != strings.Join(tc.want, ", ") {
			t.Errorf("%s: events\n  %s\nwant\n  %s", tc.h, strings.Join(got, ", "), strings.Join(tc.want, ", "))
		}
		if tc.h == color.Chaitin {
			if len(out.Spilled) == 0 || out.Colors != nil || out.Select != 0 {
				t.Errorf("chaitin: spilled %v, colors %v, select time %v; want a spill on C4 with k=2 and no select",
					out.Spilled, out.Colors, out.Select)
			}
		} else {
			if len(out.Spilled) != 0 {
				t.Errorf("%s: spilled %v on the 2-colorable C4 with k=2", tc.h, out.Spilled)
			}
			if err := color.Verify(g, out.Colors, kAll(2)); err != nil {
				t.Errorf("%s: %v", tc.h, err)
			}
		}
		pooled := color.Run(nil, g, nil, costs, kAll(2), tc.h, color.CostOverDegree, nil)
		if fmt.Sprint(pooled.Colors, pooled.Spilled, pooled.ScanSteps) != fmt.Sprint(out.Colors, out.Spilled, out.ScanSteps) {
			t.Errorf("%s: pooled run %v %v differs from the scratch run %v %v",
				tc.h, pooled.Colors, pooled.Spilled, out.Colors, out.Spilled)
		}
	}
}

// TestOddCycleSpills checks the other direction: C5 with k=2 is NOT
// 2-colorable, so even the optimistic heuristic must spill — but
// exactly one node.
func TestOddCycleSpills(t *testing.T) {
	g, costs := graphgen.Cycle(5)
	_, uncolored := simplifyAndSelect(g, costs, 2, color.Briggs)
	if len(uncolored) != 1 {
		t.Fatalf("briggs on C5, k=2: spilled %d nodes, want exactly 1", len(uncolored))
	}
}

// TestValidColoring is the fundamental safety property on random
// graphs: whatever is colored is properly colored, for all three
// heuristics, across densities and k.
func TestValidColoring(t *testing.T) {
	for _, h := range []color.Heuristic{color.Chaitin, color.Briggs, color.MatulaBeck} {
		for _, p := range []float64{0.02, 0.1, 0.3, 0.7} {
			for _, k := range []int{2, 4, 8, 16} {
				for seed := uint64(1); seed <= 5; seed++ {
					g, costs := graphgen.Random(60, p, seed*7+uint64(k))
					colors, _ := simplifyAndSelect(g, costs, k, h)
					if h == color.Chaitin && colors == nil {
						continue // spilled without coloring; nothing to verify
					}
					if err := color.Verify(g, colors, kAll(k)); err != nil {
						t.Fatalf("%s p=%g k=%d seed=%d: %v", h, p, k, seed, err)
					}
				}
			}
		}
	}
}

// TestBriggsNeverSpillsMore is the paper's dominance claim (§2.3):
// on any single pass, the optimistic heuristic spills a subset of
// what Chaitin's heuristic spills — never more nodes. Verified by
// testing/quick over random graphs.
func TestBriggsNeverSpillsMore(t *testing.T) {
	prop := func(seed uint64, pRaw uint8, kRaw uint8) bool {
		p := 0.02 + float64(pRaw%80)/100.0
		k := 2 + int(kRaw%15)
		g, costs := graphgen.Random(50, p, seed)
		_, chaitinSpills := simplifyAndSelect(g, costs, k, color.Chaitin)
		_, briggsSpills := simplifyAndSelect(g, costs, k, color.Briggs)

		// Count: Briggs never spills more…
		if len(briggsSpills) > len(chaitinSpills) {
			return false
		}
		// …and in fact spills a subset of the same nodes.
		marked := make(map[int32]bool)
		for _, n := range chaitinSpills {
			marked[n] = true
		}
		for _, n := range briggsSpills {
			if !marked[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestIdenticalWhenNoSpills: when Chaitin colors a graph without
// spilling, the optimistic heuristic produces the *identical*
// assignment (§2.2: "If Chaitin's method colors the graph without
// inserting spill code, our method will, too" — and with shared
// tie-breaking, the very same colors).
func TestIdenticalWhenNoSpills(t *testing.T) {
	checked := 0
	for seed := uint64(1); seed <= 60; seed++ {
		g, costs := graphgen.Random(40, 0.1, seed)
		cOld, spilled := simplifyAndSelect(g, costs, 8, color.Chaitin)
		if len(spilled) > 0 {
			continue
		}
		cNew, un := simplifyAndSelect(g, costs, 8, color.Briggs)
		if len(un) != 0 {
			t.Fatalf("seed %d: briggs spilled where chaitin did not", seed)
		}
		for n := range cOld {
			if cOld[n] != cNew[n] {
				t.Fatalf("seed %d: node %d colored %d (old) vs %d (new)", seed, n, cOld[n], cNew[n])
			}
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("too few spill-free instances (%d); adjust graph density", checked)
	}
}

// TestSVDLikePattern reproduces the paper's §1.2/§3 narrative on a
// synthetic graph with the SVD pressure pattern: Chaitin spills the
// cheap copy-loop ranges (pointlessly) plus more, while the
// optimistic allocator spills strictly less.
func TestSVDLikePattern(t *testing.T) {
	g, costs := graphgen.SVDLike(10, 4, 3, 10, 8, 42)
	k := 16
	_, chaitinSpills := simplifyAndSelect(g, costs, k, color.Chaitin)
	_, briggsSpills := simplifyAndSelect(g, costs, k, color.Briggs)
	if len(chaitinSpills) == 0 {
		t.Fatal("expected Chaitin to spill on the SVD-like graph")
	}
	if len(briggsSpills) >= len(chaitinSpills) {
		t.Fatalf("optimistic coloring should beat Chaitin here: briggs %d vs chaitin %d",
			len(briggsSpills), len(chaitinSpills))
	}
}

// TestTwoClassIndependence: with both register classes present,
// coloring respects each class's own k.
func TestTwoClassIndependence(t *testing.T) {
	g, costs := graphgen.TwoClass(80, 0.4, 11)
	k := color.NumColors(16, 8)
	out := color.Run(nil, g, nil, costs, k, color.Briggs, color.CostOverDegree, nil)
	if err := color.Verify(g, out.Colors, k); err != nil {
		t.Fatal(err)
	}
}

// TestMetrics exercises the ablation metrics: all still produce
// valid colorings.
func TestMetrics(t *testing.T) {
	for _, m := range []color.Metric{color.CostOverDegree, color.CostOnly, color.DegreeOnly} {
		g, costs := graphgen.Random(60, 0.4, 5)
		out := color.Run(nil, g, nil, costs, kAll(6), color.Briggs, m, nil)
		if err := color.Verify(g, out.Colors, kAll(6)); err != nil {
			t.Fatalf("metric %d: %v", m, err)
		}
	}
}

// TestChooseSpillPrefersCheap: with the cost/degree metric, an
// infinite-cost node is never chosen while a finite one remains.
func TestChooseSpillPrefersCheap(t *testing.T) {
	classes := make([]ir.Class, 4)
	g := ig.New(classes)
	for a := int32(0); a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			g.AddEdge(a, b)
		}
	}
	costs := []float64{math.Inf(1), math.Inf(1), 5, math.Inf(1)}
	_, spilled := simplifyAndSelect(g, costs, 2, color.Chaitin)
	if len(spilled) == 0 || spilled[0] != 2 {
		t.Fatalf("expected node 2 (the only finite-cost node) to be the first spill, got %v", spilled)
	}
}

// TestParseHeuristic covers the name parser: every accepted spelling
// resolves, and a rejected one names all the legal values, so a
// typo'd -heuristic (or allocd query) tells the caller what to type
// instead.
func TestParseHeuristic(t *testing.T) {
	cases := []struct {
		in   string
		want color.Heuristic
	}{
		{"chaitin", color.Chaitin}, {"old", color.Chaitin},
		{"briggs", color.Briggs}, {"new", color.Briggs}, {"optimistic", color.Briggs},
		{"matula-beck", color.MatulaBeck}, {"mb", color.MatulaBeck}, {"smallest-last", color.MatulaBeck},
		{"ssa", color.SSA}, {"chordal", color.SSA},
		{"irc", color.IRC}, {"iterated", color.IRC},
	}
	for _, tc := range cases {
		got, err := color.ParseHeuristic(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseHeuristic(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"nope", "", "BRIGGS", "george"} {
		_, err := color.ParseHeuristic(bad)
		if err == nil {
			t.Errorf("ParseHeuristic(%q) should fail", bad)
			continue
		}
		// The error must enumerate the accepted values — every legal
		// spelling appears in the message.
		for _, tc := range cases {
			if !strings.Contains(err.Error(), tc.in) {
				t.Errorf("ParseHeuristic(%q) error %q does not mention accepted spelling %q", bad, err, tc.in)
			}
		}
	}
}

// TestMatulaBeckIgnoresCost: smallest-last ordering never consults
// costs, so two different cost vectors give the same stack.
func TestMatulaBeckIgnoresCost(t *testing.T) {
	g, costs := graphgen.Random(50, 0.3, 9)
	costs2 := make([]float64, len(costs))
	for i := range costs2 {
		costs2[i] = costs[len(costs)-1-i]
	}
	var sa, sb color.Scratch
	a := color.SimplifyInto(&sa, g, costs, kAll(4), color.MatulaBeck, color.CostOverDegree, nil)
	b := color.SimplifyInto(&sb, g, costs2, kAll(4), color.MatulaBeck, color.CostOverDegree, nil)
	if len(a.Stack) != len(b.Stack) {
		t.Fatal("stack lengths differ")
	}
	for i := range a.Stack {
		if a.Stack[i] != b.Stack[i] {
			t.Fatalf("stacks differ at %d", i)
		}
	}
	if len(a.SpillMarked) != 0 {
		t.Fatal("matula-beck must not mark spills in simplify")
	}
}
