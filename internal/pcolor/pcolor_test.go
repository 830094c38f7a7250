package pcolor_test

import (
	"fmt"
	"slices"
	"testing"

	"regalloc/internal/color"
	"regalloc/internal/graphgen"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
	"regalloc/internal/pcolor"
)

// corpus is the graphgen corpus the differential tests sweep: the
// random and structured generators at several sizes and seeds.
func corpus() []struct {
	name string
	g    *ig.Graph
} {
	var out []struct {
		name string
		g    *ig.Graph
	}
	add := func(name string, g *ig.Graph, _ []float64) {
		out = append(out, struct {
			name string
			g    *ig.Graph
		}{name, g})
	}
	for _, c := range []struct {
		n    int
		p    float64
		seed uint64
	}{
		{60, 0.3, 1}, {200, 0.1, 2}, {800, 0.02, 3}, {2500, 0.004, 4},
	} {
		g, costs := graphgen.Random(c.n, c.p, c.seed)
		add(fmt.Sprintf("random-%d-%g-%d", c.n, c.p, c.seed), g, costs)
	}
	for _, c := range []struct {
		n    int
		seed uint64
	}{
		{100, 5}, {1200, 6},
	} {
		g, costs := graphgen.TwoClass(c.n, 0.08, c.seed)
		add(fmt.Sprintf("twoclass-%d-%d", c.n, c.seed), g, costs)
	}
	for _, seed := range []uint64{7, 8} {
		g, costs := graphgen.SVDLike(20, 12, 4, 10, 6, seed)
		add(fmt.Sprintf("svdlike-%d", seed), g, costs)
	}
	for _, n := range []int{4, 5, 101, 1000} {
		g, costs := graphgen.Cycle(n)
		add(fmt.Sprintf("cycle-%d", n), g, costs)
	}
	return out
}

// TestPColorMatchesSequential is the differential oracle of the
// speculative engine: over the graphgen corpus, every coloring must
// be proper, byte-identical across runs for a fixed (seed, workers)
// pair, and within the documented palette slack of the sequential
// smallest-last baseline.
func TestPColorMatchesSequential(t *testing.T) {
	for _, c := range corpus() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			_, seq := pcolor.Sequential(c.g)
			for _, workers := range []int{1, 2, 4, 8} {
				for _, seed := range []uint64{1, 42} {
					o := pcolor.Options{Workers: workers, Seed: seed}
					colors, st := pcolor.Color(c.g, o)
					if err := color.Verify(c.g, colors, pcolor.KFor(st)); err != nil {
						t.Fatalf("workers=%d seed=%d: improper coloring: %v", workers, seed, err)
					}
					for i, cc := range colors {
						if cc < 0 {
							t.Fatalf("workers=%d seed=%d: node %d left uncolored", workers, seed, i)
						}
					}
					again, st2 := pcolor.Color(c.g, o)
					if *st != *st2 {
						t.Fatalf("workers=%d seed=%d: stats differ across runs: %+v vs %+v", workers, seed, st, st2)
					}
					for i := range colors {
						if colors[i] != again[i] {
							t.Fatalf("workers=%d seed=%d: node %d colored %d then %d — not deterministic",
								workers, seed, i, colors[i], again[i])
						}
					}
					for _, cls := range []ir.Class{ir.ClassInt, ir.ClassFloat} {
						want := seq.Colors(cls)
						if got := st.Colors(cls); got > want+pcolor.Slack(want) {
							t.Fatalf("workers=%d seed=%d class=%s: %d colors, sequential used %d (slack %d)",
								workers, seed, cls, got, want, pcolor.Slack(want))
						}
					}
				}
			}
		})
	}
}

// TestSequentialBaseline pins the comparator itself: proper, fully
// colored, stable across calls, and the same as color.Run's
// Matula–Beck at k = n+1, which no degree can reach.
func TestSequentialBaseline(t *testing.T) {
	g, _ := graphgen.Random(300, 0.05, 9)
	colors, st := pcolor.Sequential(g)
	n := g.NumNodes()
	unbounded := color.Run(nil, g, nil, make([]float64, n), func(ir.Class) int { return n + 1 },
		color.MatulaBeck, color.CostOverDegree, nil)
	if !slices.Equal(colors, unbounded.Colors) {
		t.Fatal("sequential baseline's colors differ from Matula–Beck's at k = n+1")
	}
	if err := color.Verify(g, colors, pcolor.KFor(st)); err != nil {
		t.Fatal(err)
	}
	again, st2 := pcolor.Sequential(g)
	if *st != *st2 {
		t.Fatalf("sequential stats differ: %+v vs %+v", st, st2)
	}
	for i := range colors {
		if colors[i] < 0 {
			t.Fatalf("node %d uncolored", i)
		}
		if colors[i] != again[i] {
			t.Fatalf("sequential baseline not deterministic at node %d", i)
		}
	}
}

// TestCycleExact: odd cycles need 3 colors, even cycles 2; the
// speculative engine must not drift beyond the slack on the shapes
// where the optimum is known.
func TestCycleExact(t *testing.T) {
	for _, n := range []int{4, 5, 100, 101} {
		g, _ := graphgen.Cycle(n)
		_, st := pcolor.Color(g, pcolor.Options{Workers: 4, Seed: 3})
		want := 2
		if n%2 == 1 {
			want = 3
		}
		if st.ColorsInt > want+pcolor.Slack(want) {
			t.Errorf("cycle-%d: %d colors, optimum %d", n, st.ColorsInt, want)
		}
	}
}

// TestEmptyAndTiny covers the degenerate shapes.
func TestEmptyAndTiny(t *testing.T) {
	g := ig.New(nil)
	colors, st := pcolor.Color(g, pcolor.Options{Workers: 4, Seed: 1})
	if len(colors) != 0 || st.Rounds != 0 || st.ColorsInt != 0 {
		t.Fatalf("empty graph: %v %+v", colors, st)
	}
	g = ig.New(make([]ir.Class, 3)) // edgeless
	colors, st = pcolor.Color(g, pcolor.Options{Workers: 8, Seed: 1})
	for i, c := range colors {
		if c != 0 {
			t.Fatalf("edgeless node %d got color %d", i, c)
		}
	}
	if st.ColorsInt != 1 || st.Conflicts != 0 {
		t.Fatalf("edgeless stats: %+v", st)
	}
}

// counterSink collects counter events by name.
type counterSink struct {
	got map[string][]int64
}

func (s *counterSink) Emit(e obs.Event) {
	if e.Kind != obs.KindCounter {
		return
	}
	if s.got == nil {
		s.got = map[string][]int64{}
	}
	s.got[e.Name] = append(s.got[e.Name], e.Value)
}

// TestTraceCounters checks the iteration is visible in traces: run
// totals always, and one pending/conflict sample per round.
func TestTraceCounters(t *testing.T) {
	g, _ := graphgen.Random(500, 0.05, 11)
	sink := &counterSink{}
	tr := obs.New(sink, "pcolor-test")
	_, st := pcolor.Color(g, pcolor.Options{Workers: 4, Seed: 1, Tracer: tr})
	for _, name := range []string{"pcolor.workers", "pcolor.rounds", "pcolor.conflicts", "pcolor.recolored"} {
		if len(sink.got[name]) != 1 {
			t.Fatalf("counter %s emitted %d times", name, len(sink.got[name]))
		}
	}
	if got := sink.got["pcolor.rounds"][0]; got != int64(st.Rounds) {
		t.Fatalf("rounds counter %d, stats %d", got, st.Rounds)
	}
	if got := len(sink.got["pcolor.round.pending"]); got != st.Rounds {
		t.Fatalf("%d per-round pending samples for %d rounds", got, st.Rounds)
	}
	if got := len(sink.got["pcolor.round.conflicts"]); got != st.Rounds {
		t.Fatalf("%d per-round conflict samples for %d rounds", got, st.Rounds)
	}
	if sink.got["pcolor.round.pending"][0] != int64(g.NumNodes()) {
		t.Fatalf("first round pending %d, want all %d nodes", sink.got["pcolor.round.pending"][0], g.NumNodes())
	}
}

// TestSlackShape pins the documented slack function.
func TestSlackShape(t *testing.T) {
	for _, c := range []struct{ seq, want int }{{0, 2}, {1, 2}, {7, 2}, {8, 2}, {12, 3}, {40, 10}} {
		if got := pcolor.Slack(c.seq); got != c.want {
			t.Errorf("Slack(%d) = %d, want %d", c.seq, got, c.want)
		}
	}
}
