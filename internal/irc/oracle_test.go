package irc_test

import (
	"context"
	"fmt"
	"testing"

	"regalloc"
	"regalloc/internal/alloc"
	"regalloc/internal/dataflow"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ig"
	"regalloc/internal/irc"
	"regalloc/internal/liverange"
	"regalloc/internal/machine"
	"regalloc/internal/spill"
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

// TestBriggsOKMatchesReferenceOnCorpus checks every Briggs query the
// worklist machine makes while allocating the corpus plus 100
// generated CFGs under irc at (16,8) and (8,4), and the corpus under
// the RT/PC machine model, against the map-based reference evaluated
// on the live state at the moment of the query.
func TestBriggsOKMatchesReferenceOnCorpus(t *testing.T) {
	queries, merges, wrong := 0, 0, 0
	restore := irc.CheckBriggsQueries(func(got, want bool) {
		queries++
		if got {
			merges++
		}
		if got != want {
			if wrong++; wrong <= 5 {
				t.Errorf("query %d: briggsOK = %v, reference %v", queries, got, want)
			}
		}
	})
	defer restore()

	units := corpus(t)
	suite := len(units)
	for seed := uint64(0); seed < 100; seed++ {
		prog, err := regalloc.Compile(fuzzgen.Generate(seed, fuzzgen.Config{}))
		if err != nil {
			t.Fatalf("fuzzgen seed %d: %v", seed, err)
		}
		units = append(units, unit{fmt.Sprintf("fz/%d", seed), "FZ", prog})
	}
	opt := regalloc.DefaultOptions()
	opt.Heuristic = regalloc.IRC
	for _, k := range [][2]int{{16, 8}, {8, 4}} {
		opt.KInt, opt.KFloat = k[0], k[1]
		for _, u := range units {
			if _, err := u.prog.Allocate(u.routine, opt); err != nil {
				t.Fatalf("%s at %v: %v", u.name, k, err)
			}
		}
	}
	opt.KInt, opt.KFloat = 16, 8
	opt.Machine = machine.RTPC()
	for _, u := range units[:suite] {
		if _, err := u.prog.Allocate(u.routine, opt); err != nil {
			t.Fatalf("%s under the RT/PC model: %v", u.name, err)
		}
	}
	t.Logf("%d Briggs queries, %d merges", queries, merges)
	if wrong > 0 {
		t.Fatalf("%d of %d queries disagree with the reference", wrong, queries)
	}
	if merges == 0 || merges == queries {
		t.Fatalf("%d of %d queries merged; the oracle needs both answers", merges, queries)
	}
}

// BenchmarkIRCRound times one worklist-machine round, the terminal
// round alloc.runIRC runs, on the colorable program that Briggs with
// the conservative pre-pass leaves for the corpus's two most
// move-heavy units at (16,8).
func BenchmarkIRCRound(b *testing.B) {
	units := map[string]unit{}
	for _, u := range corpus(b) {
		units[u.routine] = u
	}
	opt := alloc.DefaultOptions()
	opt.ConservativeCoalesce = true
	for _, name := range []string{"GRADNT", "HSSIAN"} {
		res, err := alloc.Run(units[name].prog.Func(name), opt)
		if err != nil {
			b.Fatal(err)
		}
		f := res.Func
		liverange.Renumber(f)
		mg := ig.WrapPlain(ig.BuildWithLiveness(f, dataflow.ComputeLiveness(f), 0, nil))
		costs := spill.Costs(f, opt.CostParams)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				irc.Color(context.Background(), f, mg, costs, opt.K(), opt.Metric, nil)
			}
		})
	}
}
