package coalesce_test

import (
	"fmt"
	"testing"

	"regalloc"
	"regalloc/internal/coalesce"
	"regalloc/internal/dataflow"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ir"
	"regalloc/internal/liverange"
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

// TestInterferenceWalkMatchesGraphOnCorpus checks every aggressive
// interference query made while allocating the corpus plus 100
// generated CFGs at (16,8) and (8,4), under Briggs and Chaitin,
// against the full interference graph built on the same function and
// liveness.
func TestInterferenceWalkMatchesGraphOnCorpus(t *testing.T) {
	queries, hits, wrong := 0, 0, 0
	restore := coalesce.CheckInterferenceQueries(func(got, want bool) {
		queries++
		if got {
			hits++
		}
		if got != want {
			if wrong++; wrong <= 5 {
				t.Errorf("query %d: walk says interfere = %v, graph %v", queries, got, want)
			}
		}
	})
	defer restore()

	units := append(corpus(t), fuzzCorpus(t, 100)...)
	for _, h := range []regalloc.Heuristic{regalloc.Briggs, regalloc.Chaitin} {
		opt := regalloc.DefaultOptions()
		opt.Heuristic = h
		for _, k := range [][2]int{{16, 8}, {8, 4}} {
			opt.KInt, opt.KFloat = k[0], k[1]
			for _, u := range units {
				if _, err := u.prog.Allocate(u.routine, opt); err != nil {
					t.Fatalf("%s under %v at %v: %v", u.name, h, k, err)
				}
			}
		}
	}
	t.Logf("%d aggressive queries, %d interfering", queries, hits)
	if wrong > 0 {
		t.Fatalf("%d of %d queries disagree with the graph", wrong, queries)
	}
	if hits == 0 || hits == queries {
		t.Fatalf("%d of %d queries interfered; the oracle needs both answers", hits, queries)
	}
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
					coalesce.RunWithLiveness(f, lv, mode.k, 1, nil)
				}
			})
		}
	}
}
