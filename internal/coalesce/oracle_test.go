package coalesce_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"regalloc"
	"regalloc/internal/coalesce"
	"regalloc/internal/dataflow"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/liverange"
	"regalloc/internal/obs"
	"regalloc/internal/workloads"
)

type unit struct {
	name, routine string
	prog          *regalloc.Program
}

// corpus compiles every Figure 5 unit plus QSORT.
func corpus(tb testing.TB) []unit {
	var units []unit
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		prog, err := regalloc.Compile(w.Source)
		if err != nil {
			tb.Fatalf("%s: %v", w.Program, err)
		}
		for _, r := range w.Routines {
			units = append(units, unit{w.Program + "/" + r, r, prog})
		}
	}
	return units
}

// fuzzCorpus compiles n generated CFGs.
func fuzzCorpus(tb testing.TB, n int) []unit {
	var units []unit
	for seed := uint64(0); seed < uint64(n); seed++ {
		prog, err := regalloc.Compile(fuzzgen.Generate(seed, fuzzgen.Config{}))
		if err != nil {
			tb.Fatalf("fuzzgen seed %d: %v", seed, err)
		}
		units = append(units, unit{fmt.Sprintf("fz/%d", seed), "FZ", prog})
	}
	return units
}

// TestBriggsTestMatchesReferenceOnCorpus checks every conservative
// query made while allocating the corpus plus 100 generated CFGs at
// (16,8) and (8,4) under Briggs with the conservative pre-pass,
// against the map-based reference test. irc's spill rounds run
// exactly this configuration, so these are also every query irc makes
// of this package; its own worklist test is checked in internal/irc.
func TestBriggsTestMatchesReferenceOnCorpus(t *testing.T) {
	queries, merges, wrong := 0, 0, 0
	restore := coalesce.CheckBriggsQueries(func(got, want bool) {
		queries++
		if got {
			merges++
		}
		if got != want {
			if wrong++; wrong <= 5 {
				t.Errorf("query %d: briggsTest = %v, reference %v", queries, got, want)
			}
		}
	})
	defer restore()

	opt := regalloc.DefaultOptions()
	opt.ConservativeCoalesce = true
	units := append(corpus(t), fuzzCorpus(t, 100)...)
	for _, k := range [][2]int{{16, 8}, {8, 4}} {
		opt.KInt, opt.KFloat = k[0], k[1]
		for _, u := range units {
			if _, err := u.prog.Allocate(u.routine, opt); err != nil {
				t.Fatalf("%s at %v: %v", u.name, k, err)
			}
		}
	}
	t.Logf("%d conservative queries, %d merges", queries, merges)
	if wrong > 0 {
		t.Fatalf("%d of %d queries disagree with the reference", wrong, queries)
	}
	if merges == 0 || merges == queries {
		t.Fatalf("%d of %d queries merged; the oracle needs both answers", merges, queries)
	}
}

// oracleUnits is what the aggressive-round oracles allocate: the
// corpus, 100 generated CFGs and a 60-loop unit, which needs 61
// rounds.
func oracleUnits(tb testing.TB) []unit {
	units := append(corpus(tb), fuzzCorpus(tb, 100)...)
	w := workloads.Loops(60)
	prog, err := regalloc.Compile(w.Source)
	if err != nil {
		tb.Fatalf("%s: %v", w.Program, err)
	}
	return append(units, unit{"loops/60", "LOOPS", prog})
}

// allocateAggressive allocates every unit under Briggs and Chaitin at
// (16,8) and (8,4), with the pre-pass coalescing aggressively, and
// obsv, if not nil, as the observer. Before each allocation it sets
// *label to name it.
func allocateAggressive(t *testing.T, units []unit, obsv obs.Sink, label *string) {
	t.Helper()
	for _, h := range []regalloc.Heuristic{regalloc.Briggs, regalloc.Chaitin} {
		opt := regalloc.DefaultOptions()
		opt.Heuristic = h
		opt.Observer = obsv
		for _, k := range [][2]int{{16, 8}, {8, 4}} {
			opt.KInt, opt.KFloat = k[0], k[1]
			for _, u := range units {
				*label = fmt.Sprintf("%s under %v at %v", u.name, h, k)
				if _, err := u.prog.Allocate(u.routine, opt); err != nil {
					t.Fatalf("%s: %v", *label, err)
				}
			}
		}
	}
}

// TestInterferenceWalkMatchesGraphOnCorpus checks every interference
// answer an aggressive round uses, asked in that round or kept from an
// earlier one, against the full interference graph of the function as
// rewritten so far, on freshly computed liveness.
func TestInterferenceWalkMatchesGraphOnCorpus(t *testing.T) {
	var label string
	answers, fresh, hits, wrong := 0, 0, 0, 0
	restore := coalesce.CheckRounds(func(f *ir.Func, _ *dataflow.Liveness) func(dst, src ir.Reg, hit, asked bool) {
		var g *ig.Graph // built at the round's first answer
		return func(dst, src ir.Reg, hit, asked bool) {
			if g == nil {
				g = ig.BuildWithLiveness(f, dataflow.ComputeLiveness(f), 0, nil)
			}
			answers++
			if asked {
				fresh++
			}
			if hit {
				hits++
			}
			if want := g.Interfere(int32(dst), int32(src)); hit != want {
				if wrong++; wrong <= 5 {
					t.Errorf("%s: v%d, v%d (asked this round %v): interfere = %v, graph %v", label, dst, src, asked, hit, want)
				}
			}
		}
	})
	defer restore()

	allocateAggressive(t, oracleUnits(t), nil, &label)
	t.Logf("%d aggressive answers (%d asked in their round, %d kept), %d interfering", answers, fresh, answers-fresh, hits)
	if wrong > 0 {
		t.Fatalf("%d of %d answers disagree with the graph", wrong, answers)
	}
	if hits == 0 || hits == answers || fresh == answers {
		t.Fatalf("%d of %d answers interfered and %d were kept; the oracle needs both answers, asked and kept", hits, answers, answers-fresh)
	}
}

// TestRoundLivenessMatchesRecompute checks the liveness every
// aggressive round answers on against a full solve on the function as
// rewritten so far. After a merging round the coalescer has updated
// only the merged registers' liveness, so this holds each update
// exact, including where a merge deletes a copy that was the only read
// keeping a register live around a loop (fuzzgen seed 18 has one).
func TestRoundLivenessMatchesRecompute(t *testing.T) {
	var label string
	round, afterMerge, wrong := 0, 0, 0
	restoreRuns := coalesce.CheckRuns(func(*ir.Func, *dataflow.Liveness) func(coalesce.Stats) {
		round = 0
		return func(coalesce.Stats) {}
	})
	defer restoreRuns()
	restore := coalesce.CheckRounds(func(f *ir.Func, lv *dataflow.Liveness) func(ir.Reg, ir.Reg, bool, bool) {
		if round++; round > 1 {
			afterMerge++
		}
		if err := diffLiveness(f, lv, dataflow.ComputeLiveness(f)); err != nil {
			if wrong++; wrong <= 5 {
				t.Errorf("%s, round %d: %v", label, round, err)
			}
		}
		return nil
	})
	defer restore()

	allocateAggressive(t, oracleUnits(t), nil, &label)
	t.Logf("liveness checked after %d merging rounds", afterMerge)
	if wrong > 0 {
		t.Fatalf("%d rounds answered on stale liveness", wrong)
	}
	if afterMerge == 0 {
		t.Fatal("no round followed a merge; the oracle checked nothing")
	}
}

// diffLiveness reports the first block where got's sets differ from
// want's.
func diffLiveness(f *ir.Func, got, want *dataflow.Liveness) error {
	for i := range f.Blocks {
		if !got.In[i].Equal(want.In[i]) || !got.Out[i].Equal(want.Out[i]) {
			return fmt.Errorf("b%d: in %v out %v, recomputed in %v out %v",
				i, got.In[i], got.Out[i], want.In[i], want.Out[i])
		}
	}
	return nil
}

// counters is an observer that keeps the coalesce.* counters, in
// order.
type counters []string

func (c *counters) Emit(e obs.Event) {
	if e.Kind == obs.KindCounter && strings.HasPrefix(e.Name, "coalesce.") {
		*c = append(*c, fmt.Sprintf("%s=%d", e.Name, e.Value))
	}
}

// TestAggressiveRoundsMatchReference holds every aggressive run the
// allocator makes to the reference round loop, which rescans, rewrites
// and recomputes everything every round. Run on a copy of the same f
// and liveness, the reference must leave the same listing and the same
// liveness, merge the same number of moves in the same number of
// rounds, and emit the same coalesce.* counters.
func TestAggressiveRoundsMatchReference(t *testing.T) {
	var label string
	var got counters
	runs, merging, wrong := 0, 0, 0
	restore := coalesce.CheckRuns(func(f *ir.Func, lv *dataflow.Liveness) func(coalesce.Stats) {
		ref := f.Clone()
		refLv := dataflow.NewLiveness(len(f.Blocks), f.NumRegs())
		for i := range f.Blocks {
			refLv.In[i].CopyFrom(lv.In[i])
			refLv.Out[i].CopyFrom(lv.Out[i])
		}
		mark := len(got)
		return func(st coalesce.Stats) {
			runs++
			if st.Moves > 0 {
				merging++
			}
			var want counters
			refSt, _ := coalesce.RunAggressiveRef(ref, refLv, obs.New(&want, ref.Name))
			var err error
			switch {
			case st.Moves != refSt.Moves || st.Rounds != refSt.Rounds:
				err = fmt.Errorf("%d moves in %d rounds, reference %d in %d", st.Moves, st.Rounds, refSt.Moves, refSt.Rounds)
			case listing(f) != listing(ref):
				err = fmt.Errorf("listing differs from the reference:\n%s\nreference:\n%s", listing(f), listing(ref))
			case !slices.Equal(got[mark:], want):
				err = fmt.Errorf("counters %v, reference %v", got[mark:], want)
			default:
				err = diffLiveness(f, lv, refLv)
			}
			if err != nil {
				if wrong++; wrong <= 5 {
					t.Errorf("%s: %v", label, err)
				}
			}
		}
	})
	defer restore()

	allocateAggressive(t, oracleUnits(t), &got, &label)
	t.Logf("%d aggressive runs, %d merging", runs, merging)
	if wrong > 0 {
		t.Fatalf("%d of %d runs differ from the reference", wrong, runs)
	}
	if merging == 0 || merging == runs {
		t.Fatalf("%d of %d runs merged; the oracle needs both kinds", merging, runs)
	}
}

func listing(f *ir.Func) string {
	var b strings.Builder
	ir.Fprint(&b, f)
	return b.String()
}

// BenchmarkCoalesce times the coalescing pre-pass, aggressive and
// conservative, on the corpus's two most move-heavy units at (16,8).
func BenchmarkCoalesce(b *testing.B) {
	units := map[string]unit{}
	for _, u := range corpus(b) {
		units[u.routine] = u
	}
	kOf := func(c ir.Class) int {
		if c == ir.ClassInt {
			return 16
		}
		return 8
	}
	for _, mode := range []struct {
		name string
		k    func(ir.Class) int
	}{{"aggressive", nil}, {"conservative", kOf}} {
		for _, name := range []string{"GRADNT", "HSSIAN"} {
			src := units[name].prog.Func(name)
			b.Run(mode.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					f := src.Clone()
					liverange.Renumber(f)
					lv := dataflow.ComputeLiveness(f)
					b.StartTimer()
					coalesce.RunWithLiveness(f, lv, mode.k, 0, nil)
				}
			})
		}
	}
}
