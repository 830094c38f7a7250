package irc

import (
	"math/rand"
	"testing"

	"regalloc/internal/color"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
)

// randomState snapshots an n-node random graph (edge probability p)
// into a fresh worklist state with k colors and no moves.
func randomState(seed int64, n int, p float64, k int) *state {
	rng := rand.New(rand.NewSource(seed))
	g := ig.New(make([]ir.Class, n))
	for a := int32(0); int(a) < n; a++ {
		for b := a + 1; int(b) < n; b++ {
			if rng.Float64() < p {
				g.AddEdge(a, b)
			}
		}
	}
	g.Finalize()
	cost := make([]float64, n)
	for i := range cost {
		cost[i] = 1 + rng.Float64()
	}
	kf := func(ir.Class) int { return k }
	return newState(&ir.Func{}, ig.WrapPlain(g), cost, kf, color.CostOverDegree, nil)
}

// forInPlayPairs calls fn for every pair of distinct in-play,
// non-interfering virtual nodes: the pairs popCoalesce can test.
func (s *state) forInPlayPairs(fn func(u, v int32)) {
	for u := int32(0); int(u) < s.n; u++ {
		for v := int32(0); int(v) < s.n; v++ {
			if u != v && s.inPlay(u) && s.inPlay(v) && !s.interfere(u, v) {
				fn(u, v)
			}
		}
	}
}

// TestBriggsOKMatchesReference steps the worklist machine through
// simplification and optimistic spilling on random graphs and, after
// every step, compares the fast test with the reference on every pair
// still in play: stacked neighbors must drop out of both the same way,
// and decremented degrees must be read the same way.
func TestBriggsOKMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		p float64
		k int
	}{{0.1, 3}, {0.3, 4}, {0.5, 8}, {0.8, 16}} {
		s := randomState(1, 40, tc.p, tc.k)
		for step := 0; ; step++ {
			s.forInPlayPairs(func(u, v int32) {
				if got, want := s.briggsOK(u, v), s.briggsOKRef(u, v); got != want {
					t.Fatalf("p=%v k=%d step %d (%d,%d): briggsOK = %v, reference %v", tc.p, tc.k, step, u, v, got, want)
				}
			})
			if !s.popSimplify() && !s.popSpill() {
				break
			}
		}
	}
}

// TestBriggsOKAllocatesNothing pins the worklist machine's Briggs
// test at zero allocations per query, whichever way it answers.
func TestBriggsOKAllocatesNothing(t *testing.T) {
	s := randomState(2, 64, 0.3, 4)
	var u, v int32
	s.forInPlayPairs(func(a, b int32) { u, v = a, b })
	seen := map[bool]bool{}
	for _, k := range []int{2, 64} {
		s.kf = func(ir.Class) int { return k }
		seen[s.briggsOKRef(u, v)] = true
		if allocs := testing.AllocsPerRun(100, func() { s.briggsOK(u, v) }); allocs != 0 {
			t.Fatalf("k=%d: %.1f allocations per query, want 0", k, allocs)
		}
	}
	if !seen[true] || !seen[false] {
		t.Fatal("the pinned queries do not cover both answers")
	}
}
