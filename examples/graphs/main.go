// Graphs: the coloring heuristics on standalone interference graphs,
// away from the compiler — where does optimistic coloring's benefit
// live? Sweeps random G(n,p) graphs across densities and prints
// Chaitin-vs-Briggs spill counts (compare the paper's §3.2: "greater
// improvement ... in highly constrained situations"), then shows the
// paper's SVD pressure pattern (§1.2) as a graph.
//
// Run with: go run ./examples/graphs
package main

import (
	"fmt"

	"regalloc/internal/color"
	"regalloc/internal/graphgen"
	"regalloc/internal/ig"
)

func spills(g *ig.Graph, costs []float64, k int, h color.Heuristic) (int, float64) {
	spilled := color.Run(nil, g, nil, costs, color.NumColors(k, k), h, color.CostOverDegree, nil).Spilled
	total := 0.0
	for _, n := range spilled {
		total += costs[n]
	}
	return len(spilled), total
}

func main() {
	const n, k, seeds = 150, 8, 20
	fmt.Printf("random G(%d, p) graphs, k = %d colors, %d seeds per density\n\n", n, k, seeds)
	fmt.Printf("%6s | %8s %8s | %s\n", "p", "chaitin", "briggs", "ranges optimism rescued")
	for _, p := range []float64{0.04, 0.08, 0.12, 0.16, 0.20, 0.30, 0.40} {
		var c, b int
		for seed := uint64(1); seed <= seeds; seed++ {
			g, costs := graphgen.Random(n, p, seed*3)
			cs, _ := spills(g, costs, k, color.Chaitin)
			bs, _ := spills(g, costs, k, color.Briggs)
			c += cs
			b += bs
		}
		bar := ""
		for i := 0; i < (c-b)/40; i++ {
			bar += "#"
		}
		fmt.Printf("%6.2f | %8d %8d | %s\n", p, c, b, bar)
	}

	fmt.Println("\nthe paper's SVD pressure pattern (long ranges + cheap copy loop + dense nests):")
	g, costs := graphgen.SVDLike(10, 4, 3, 10, 8, 42)
	for _, h := range []color.Heuristic{color.Chaitin, color.Briggs, color.MatulaBeck} {
		count, cost := spills(g, costs, 16, h)
		fmt.Printf("  %-12s spills %2d ranges, estimated cost %8.0f\n", h, count, cost)
	}
	fmt.Println("\nnote the cost-blind smallest-last ordering: competitive counts, terrible costs (§2.3).")
}
