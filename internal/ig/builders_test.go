package ig_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"regalloc"
	"regalloc/internal/alloc"
	"regalloc/internal/color"
	"regalloc/internal/dataflow"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/liverange"
	"regalloc/internal/machine"
	"regalloc/internal/target"
	"regalloc/internal/workloads"
)

// suiteFuncs compiles every Figure 5 unit plus QSORT, keyed by
// PROGRAM/ROUTINE.
func suiteFuncs(tb testing.TB) (names []string, fns []*ir.Func) {
	tb.Helper()
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		prog, err := regalloc.Compile(w.Source)
		if err != nil {
			tb.Fatalf("%s: %v", w.Program, err)
		}
		for _, r := range w.Routines {
			names = append(names, w.Program+"/"+r)
			fns = append(fns, prog.Func(r))
		}
	}
	return names, fns
}

// webs returns a renumbered copy of f, the shape the allocator builds
// graphs on, and its liveness.
func webs(f *ir.Func) (*ir.Func, *dataflow.Liveness) {
	w := f.Clone()
	return w, liverange.Renumber(w)
}

// TestBuildersMatchReferenceOnFuzzgen holds BuildWithLiveness and
// BuildWithMachine (on the RT/PC model) to their per-pair reference
// streams on every unit of 100 generated programs.
func TestBuildersMatchReferenceOnFuzzgen(t *testing.T) {
	m := machine.RTPC()
	for seed := uint64(0); seed < 100; seed++ {
		prog, err := regalloc.Compile(fuzzgen.Generate(seed, fuzzgen.Config{}))
		if err != nil {
			t.Fatalf("fuzzgen seed %d: %v", seed, err)
		}
		for _, f := range prog.IR.Funcs {
			w, lv := webs(f)
			if err := ig.MatchesReference(w, lv, nil, ig.BuildWithLiveness(w, lv, 0, nil)); err != nil {
				t.Fatalf("seed %d %s: %v", seed, f.Name, err)
			}
			if err := ig.MatchesReference(w, lv, m, ig.BuildWithMachine(w, lv, m, nil).Graph); err != nil {
				t.Fatalf("seed %d %s on %s: %v", seed, f.Name, m.Name, err)
			}
		}
	}
}

// TestAllocGraphsMatchReference holds every graph the allocator builds
// for the suite, in every pass and coalescing round, to its builder's
// per-pair reference stream: at (16,8) and (8,4), plain and on the
// RT/PC model.
func TestAllocGraphsMatchReference(t *testing.T) {
	var label string
	var plain, onModel, wrong int
	restore := ig.ObserveBuilds(func(f *ir.Func, lv *dataflow.Liveness, m *machine.Model, g *ig.Graph) {
		if m == nil {
			plain++
		} else {
			onModel++
		}
		if err := ig.MatchesReference(f, lv, m, g); err != nil {
			if wrong++; wrong <= 5 {
				t.Errorf("%s: %v", label, err)
			}
		}
	})
	defer restore()

	rtpc := func(o *alloc.Options) {
		o.Machine = machine.ForTarget(target.RTPC().WithGPR(o.KInt).WithFPR(o.KFloat))
	}
	configs := []struct {
		name string
		set  func(*alloc.Options)
	}{
		{"briggs", func(*alloc.Options) {}},
		{"briggs-cc", func(o *alloc.Options) { o.ConservativeCoalesce = true }},
		{"irc", func(o *alloc.Options) { o.Heuristic = color.IRC }},
		{"briggs/rtpc", rtpc},
		{"irc/rtpc", func(o *alloc.Options) { o.Heuristic = color.IRC; rtpc(o) }},
	}
	names, fns := suiteFuncs(t)
	for _, c := range configs {
		for _, k := range [][2]int{{16, 8}, {8, 4}} {
			opt := alloc.DefaultOptions()
			opt.KInt, opt.KFloat = k[0], k[1]
			c.set(&opt)
			for i, f := range fns {
				label = fmt.Sprintf("%s under %s at %v", names[i], c.name, k)
				if _, err := alloc.Run(f, opt); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
	t.Logf("%d plain and %d RT/PC graphs checked", plain, onModel)
	if plain == 0 || onModel == 0 {
		t.Fatalf("%d plain and %d RT/PC graphs checked; the oracle missed a builder", plain, onModel)
	}
	if wrong > 0 {
		t.Fatalf("%d of %d graphs differ from their reference stream", wrong, plain+onModel)
	}
}

// rowsOf copies g's adjacency rows.
func rowsOf(g *ig.Graph) [][]int32 {
	rows := make([][]int32, g.NumNodes())
	for a := range rows {
		rows[a] = append([]int32(nil), g.Neighbors(int32(a))...)
	}
	return rows
}

// TestConcurrentBuildsMatchSequential builds the suite's graphs, plain
// and on the RT/PC model, from several goroutines at once and holds
// each to the same build done alone: the goroutines share the pool the
// edge logs come from. Run it under -race with -cpu 1,4.
func TestConcurrentBuildsMatchSequential(t *testing.T) {
	names, fns := suiteFuncs(t)
	m := machine.RTPC()
	type input struct {
		f  *ir.Func
		lv *dataflow.Liveness
	}
	ins := make([]input, len(fns))
	want := make([][2][][]int32, len(fns))
	for i, f := range fns {
		w, lv := webs(f)
		ins[i] = input{w, lv}
		want[i] = [2][][]int32{
			rowsOf(ig.BuildWithLiveness(w, lv, 0, nil)),
			rowsOf(ig.BuildWithMachine(w, lv, m, nil).Graph),
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each worker starts at a different unit, so different
			// graphs are in flight at once.
			for j := range ins {
				i := (j + g*len(ins)/workers) % len(ins)
				got := [2][][]int32{
					rowsOf(ig.BuildWithLiveness(ins[i].f, ins[i].lv, 0, nil)),
					rowsOf(ig.BuildWithMachine(ins[i].f, ins[i].lv, m, nil).Graph),
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d: %s: a concurrent build differs from the sequential one", g, names[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
