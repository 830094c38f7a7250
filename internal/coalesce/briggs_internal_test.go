package coalesce

import (
	"math/rand"
	"testing"

	"regalloc/internal/ig"
	"regalloc/internal/ir"
)

// briggsTestRef is the reference conservative test: the union
// neighborhood collected into a map, shared neighbors' degrees
// lowered by one, then every significant neighbor counted. The fast
// briggsTest must agree with it on every query.
func briggsTestRef(g *ig.Graph, dst, src ir.Reg, k int) bool {
	deg := make(map[int32]int)
	for _, nb := range g.Neighbors(int32(dst)) {
		deg[nb] = g.Degree(nb)
	}
	for _, nb := range g.Neighbors(int32(src)) {
		if _, common := deg[nb]; common {
			deg[nb] = g.Degree(nb) - 1
		} else {
			deg[nb] = g.Degree(nb)
		}
	}
	delete(deg, int32(dst))
	delete(deg, int32(src))
	significant := 0
	for _, d := range deg {
		if d >= k {
			significant++
		}
	}
	return significant < k
}

// randomGraph returns an n-node single-class graph with each edge
// present with probability p.
func randomGraph(rng *rand.Rand, n int, p float64) *ig.Graph {
	g := ig.New(make([]ir.Class, n))
	for a := int32(0); int(a) < n; a++ {
		for b := a + 1; int(b) < n; b++ {
			if rng.Float64() < p {
				g.AddEdge(a, b)
			}
		}
	}
	g.Finalize()
	return g
}

// forPairs calls fn for every non-interfering pair of distinct nodes,
// the only pairs a coalescing round ever tests.
func forPairs(g *ig.Graph, fn func(dst, src ir.Reg)) {
	for a := int32(0); int(a) < g.NumNodes(); a++ {
		for b := int32(0); int(b) < g.NumNodes(); b++ {
			if a != b && !g.Interfere(a, b) {
				fn(ir.Reg(a), ir.Reg(b))
			}
		}
	}
}

// TestBriggsTestMatchesReference compares the fast test with the
// reference on every coalescable pair of random graphs, from sparse
// to dense and across k, with one scratch shared by every query.
func TestBriggsTestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []float64{0.05, 0.2, 0.5, 0.8} {
		g := randomGraph(rng, 40, p)
		bs := &briggsScratch{mark: make([]uint32, g.NumNodes())}
		rows := rowsOf(g)
		for _, k := range []int{1, 2, 4, 8, 16} {
			forPairs(g, func(dst, src ir.Reg) {
				if got, want := bs.briggsTest(rows, dst, src, k), briggsTestRef(g, dst, src, k); got != want {
					t.Fatalf("p=%v k=%d (%d,%d): briggsTest = %v, reference %v", p, k, dst, src, got, want)
				}
			})
		}
	}
}

// TestBriggsTestAllocatesNothing pins the conservative test at zero
// allocations per query once the run's scratch exists, whichever
// way the query answers.
func TestBriggsTestAllocatesNothing(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(2)), 64, 0.3)
	bs := &briggsScratch{mark: make([]uint32, g.NumNodes())}
	rows := rowsOf(g)
	var dst, src ir.Reg
	forPairs(g, func(d, s ir.Reg) { dst, src = d, s })
	seen := map[bool]bool{}
	for _, k := range []int{2, 64} {
		seen[briggsTestRef(g, dst, src, k)] = true
		if allocs := testing.AllocsPerRun(100, func() { bs.briggsTest(rows, dst, src, k) }); allocs != 0 {
			t.Fatalf("k=%d: %.1f allocations per query, want 0", k, allocs)
		}
	}
	if !seen[true] || !seen[false] {
		t.Fatal("the pinned queries do not cover both answers")
	}
}

// TestBriggsScratchEpochWrap: when the epoch wraps around, marks left
// by earlier epochs must not pass for the new epoch's.
func TestBriggsScratchEpochWrap(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 40, 0.3)
	rows := rowsOf(g)
	for _, k := range []int{2, 4, 8} {
		forPairs(g, func(dst, src ir.Reg) {
			bs := &briggsScratch{mark: make([]uint32, g.NumNodes())}
			// Stale stamps from the first epochs after a wrap, then a
			// query that wraps.
			for i := range bs.mark {
				bs.mark[i] = uint32(2 + i%2)
			}
			bs.epoch = ^uint32(0) - 1
			if got, want := bs.briggsTest(rows, dst, src, k), briggsTestRef(g, dst, src, k); got != want {
				t.Fatalf("k=%d (%d,%d) across the wrap: briggsTest = %v, reference %v", k, dst, src, got, want)
			}
		})
	}
}
