package coalesce_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
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

// oracleUnits is what the round oracles allocate: the corpus, 100
// generated CFGs and a 60-loop unit, which needs 61 rounds.
func oracleUnits(tb testing.TB) []unit {
	units := append(corpus(tb), fuzzCorpus(tb, 100)...)
	w := workloads.Loops(60)
	prog, err := regalloc.Compile(w.Source)
	if err != nil {
		tb.Fatalf("%s: %v", w.Program, err)
	}
	return append(units, unit{"loops/60", "LOOPS", prog})
}

// allocateAll allocates every unit under each heuristic at each
// register-file size, with conservative set as the pre-pass's mode and
// obsv, if not nil, as the observer. Before each allocation it sets
// *label to name it.
func allocateAll(t *testing.T, units []unit, hs []regalloc.Heuristic, ks [][2]int, conservative bool, obsv obs.Sink, label *string) {
	t.Helper()
	for _, h := range hs {
		opt := regalloc.DefaultOptions()
		opt.Heuristic = h
		opt.ConservativeCoalesce = conservative
		opt.Observer = obsv
		for _, k := range ks {
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

// allocateAggressive makes every aggressive run the oracles check:
// Briggs and Chaitin at (16,8) and (8,4).
func allocateAggressive(t *testing.T, units []unit, obsv obs.Sink, label *string) {
	t.Helper()
	allocateAll(t, units, []regalloc.Heuristic{regalloc.Briggs, regalloc.Chaitin}, [][2]int{{16, 8}, {8, 4}}, false, obsv, label)
}

// allocateConservative makes every conservative run the oracles check:
// Briggs and Chaitin under ConservativeCoalesce, and irc, whose spill
// rounds are Briggs under ConservativeCoalesce, at (16,8), (8,4) and
// (6,4).
func allocateConservative(t *testing.T, units []unit, obsv obs.Sink, label *string) {
	t.Helper()
	ks := [][2]int{{16, 8}, {8, 4}, {6, 4}}
	allocateAll(t, units, []regalloc.Heuristic{regalloc.Briggs, regalloc.Chaitin}, ks, true, obsv, label)
	allocateAll(t, units, []regalloc.Heuristic{regalloc.IRC}, ks, false, obsv, label)
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

// roundOracle is what the round oracles find in a sweep of
// allocations. Held to the reference round loop of its mode, run on a
// copy of the same f and liveness, each run must leave the same
// listing and the same liveness, merge the same number of moves in the
// same number of rounds, and emit the same coalesce.* counters. The
// liveness each round answers on must equal a full solve on the
// function as rewritten so far.
type roundOracle struct {
	label string
	got   counters // the sweep's observer

	runs, merging int
	refWrong      []string // the first five; refBad counts them all
	refBad        int

	// skipped counts the rounds the allocator skipped, each run here
	// on copies of its function and liveness; skipMerged counts those
	// that merged.
	skipped, skipMerged int

	round, afterMerge int
	liveWrong         []string
	liveBad           int

	// graphs counts the conservative rounds after a merge, whose
	// carried graph is held to a fresh build; graphBad those where it
	// differs, and grown those where some row held more than the fresh
	// one's.
	graphs, graphBad, grown int
	graphWrong              []string
}

// watch, until restore is called, holds every run to the reference
// loop of its mode when ref is set, and checks every round's liveness,
// and the graph every conservative round after a merge carries, when
// live is set. With ref set, every round the allocator skips is also
// run, on copies, through RunContext, so the reference checks it too,
// and it must merge nothing. Runs must come from one goroutine at a
// time.
func (o *roundOracle) watch(ref, live bool) (restore func()) {
	restoreSkips := func() {}
	if ref {
		restoreSkips = coalesce.CheckSkippedRounds(func(f *ir.Func, lv *dataflow.Liveness) {
			o.skipped++
			st, _, err := coalesce.RunContext(context.Background(), f.Clone(), copyLiveness(f, lv), nil, obs.New(&o.got, f.Name))
			if err != nil || st.Moves > 0 {
				if o.skipMerged++; o.skipMerged <= 5 {
					o.refWrong = append(o.refWrong, fmt.Sprintf("%s: a skipped round merged %d moves (%v)", o.label, st.Moves, err))
				}
			}
		})
	}
	restoreRuns := coalesce.CheckRuns(func(f *ir.Func, lv *dataflow.Liveness, k func(ir.Class) int) func(coalesce.Stats) {
		o.round = 0
		if !ref {
			return func(coalesce.Stats) {}
		}
		refF := f.Clone()
		refLv := copyLiveness(f, lv)
		mark := len(o.got)
		return func(st coalesce.Stats) {
			o.runs++
			if st.Moves > 0 {
				o.merging++
			}
			var want counters
			var refSt coalesce.Stats
			if k != nil {
				refSt, _ = coalesce.RunConservativeRef(refF, refLv, k, obs.New(&want, refF.Name))
			} else {
				refSt, _ = coalesce.RunAggressiveRef(refF, refLv, obs.New(&want, refF.Name))
			}
			var err error
			switch {
			case st.Moves != refSt.Moves || st.Rounds != refSt.Rounds:
				err = fmt.Errorf("%d moves in %d rounds, reference %d in %d", st.Moves, st.Rounds, refSt.Moves, refSt.Rounds)
			case !sameCode(f, refF):
				err = fmt.Errorf("listing differs from the reference:\n%s\nreference:\n%s", listing(f), listing(refF))
			case !slices.Equal(o.got[mark:], want):
				err = fmt.Errorf("counters %v, reference %v", o.got[mark:], want)
			default:
				err = diffLiveness(f, lv, refLv)
			}
			if err != nil {
				if o.refBad++; o.refBad <= 5 {
					o.refWrong = append(o.refWrong, fmt.Sprintf("%s: %v", o.label, err))
				}
			}
		}
	})
	if !live {
		return func() {
			restoreSkips()
			restoreRuns()
		}
	}
	// The round's full solve, which the graph check builds on too: a
	// round shows both checks the same f.
	var solvedF *ir.Func
	var solved *dataflow.Liveness
	restoreRounds := coalesce.CheckRounds(func(f *ir.Func, lv *dataflow.Liveness) func(ir.Reg, ir.Reg, bool, bool) {
		if o.round++; o.round > 1 {
			o.afterMerge++
		}
		solvedF, solved = f, dataflow.ComputeLiveness(f)
		if err := diffLiveness(f, lv, solved); err != nil {
			if o.liveBad++; o.liveBad <= 5 {
				o.liveWrong = append(o.liveWrong, fmt.Sprintf("%s, round %d: %v", o.label, o.round, err))
			}
		}
		return nil
	})
	restoreGraphs := coalesce.CheckCarriedGraphs(func(f *ir.Func, rows [][]int32) {
		o.graphs++
		lv := solved
		if f != solvedF {
			lv = dataflow.ComputeLiveness(f)
		}
		grown, err := diffGraph(rows, ig.BuildWithLiveness(f, lv, 0, nil))
		if grown {
			o.grown++
		}
		if err != nil {
			if o.graphBad++; o.graphBad <= 5 {
				o.graphWrong = append(o.graphWrong, fmt.Sprintf("%s, round %d: %v", o.label, o.round, err))
			}
		}
	})
	return func() {
		restoreGraphs()
		restoreRounds()
		restoreSkips()
		restoreRuns()
	}
}

// diffGraph reports the first node whose row differs from the fresh
// graph g's, as a neighbor set or in length, which is the degree the
// Briggs test reads; grown reports whether some row held more than
// g's. A row as long as g's that holds every one of g's neighbors
// holds exactly them, once each.
func diffGraph(rows [][]int32, g *ig.Graph) (grown bool, err error) {
	if len(rows) != g.NumNodes() {
		return false, fmt.Errorf("%d rows, fresh graph %d nodes", len(rows), g.NumNodes())
	}
	in := make([]int, len(rows)) // in[b] == a+1: b is in row a
	for a, row := range rows {
		want := g.Neighbors(int32(a))
		if len(row) > len(want) {
			grown = true
		}
		for _, b := range row {
			in[b] = a + 1
		}
		same := len(row) == len(want)
		for _, b := range want {
			same = same && in[b] == a+1
		}
		if !same && err == nil {
			got, fresh := slices.Clone(row), slices.Clone(want)
			slices.Sort(got)
			slices.Sort(fresh)
			err = fmt.Errorf("v%d: carried neighbors %v (degree %d), fresh %v (degree %d)", a, got, len(got), fresh, len(fresh))
		}
	}
	return grown, err
}

// copyLiveness returns a copy of lv, the liveness of f.
func copyLiveness(f *ir.Func, lv *dataflow.Liveness) *dataflow.Liveness {
	c := dataflow.NewLiveness(len(f.Blocks), f.NumRegs())
	for i := range f.Blocks {
		c.In[i].CopyFrom(lv.In[i])
		c.Out[i].CopyFrom(lv.Out[i])
	}
	return c
}

// conservativeSweep is the one sweep of conservative runs that the
// three oracles read: the reference round loop, the liveness of every
// round and the graph every round after a merge carries. The
// reference loop builds the full graph in every round, and so does
// the graph oracle, so the sweep is most of what the oracles cost,
// minutes under the race detector, and one sweep that runs all the
// checks saves two.
var conservativeSweep struct {
	once sync.Once
	o    *roundOracle
}

// conservativeOracle returns what the oracles found over every
// conservative run, sweeping the first time it is called.
func conservativeOracle(t *testing.T) *roundOracle {
	conservativeSweep.once.Do(func() {
		o := new(roundOracle)
		defer o.watch(true, true)()
		allocateConservative(t, oracleUnits(t), &o.got, &o.label)
		conservativeSweep.o = o
	})
	if conservativeSweep.o == nil {
		t.Fatal("the conservative sweep failed in an earlier test")
	}
	return conservativeSweep.o
}

// TestRoundLivenessMatchesRecompute checks the liveness every round,
// aggressive and conservative, answers on against a full solve on the
// function as rewritten so far. After a merging round the coalescer
// has updated only the merged registers' liveness, so this holds each
// update exact, including where a merge deletes a copy that was the
// only read keeping a register live around a loop (fuzzgen seed 18
// has one).
func TestRoundLivenessMatchesRecompute(t *testing.T) {
	agg := new(roundOracle)
	restore := agg.watch(false, true)
	allocateAggressive(t, oracleUnits(t), nil, &agg.label)
	restore()
	cons := conservativeOracle(t)
	for _, o := range []*roundOracle{agg, cons} {
		for _, e := range o.liveWrong {
			t.Error(e)
		}
	}
	t.Logf("liveness checked after %d aggressive and %d conservative merging rounds", agg.afterMerge, cons.afterMerge)
	if bad := agg.liveBad + cons.liveBad; bad > 0 {
		t.Fatalf("%d rounds answered on stale liveness", bad)
	}
	if agg.afterMerge == 0 || cons.afterMerge == 0 {
		t.Fatal("no round followed a merge in one of the modes; the oracle checked nothing there")
	}
}

// TestCarriedGraphMatchesBuild holds the interference graph a
// conservative run carries into each round after a merge to a fresh
// ig.BuildWithLiveness of the function as rewritten so far: every node
// must have the same neighbor set and the same degree. The plain union
// of a merged pair's rows is a superset of the fresh row, because the
// copy the merge deletes, or a move out of either end, can be an
// edge's only witness; so this holds the run to recomputing each
// changed row.
func TestCarriedGraphMatchesBuild(t *testing.T) {
	o := conservativeOracle(t)
	for _, e := range o.graphWrong {
		t.Error(e)
	}
	t.Logf("carried graph checked in %d conservative rounds after a merge", o.graphs)
	if o.graphBad > 0 {
		t.Fatalf("%d of %d carried graphs differ from a fresh build (%d with a row larger than the fresh one)", o.graphBad, o.graphs, o.grown)
	}
	if o.graphs == 0 {
		t.Fatal("no conservative round followed a merge; the oracle checked nothing")
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

// report fails t if any run o held to the reference differed, or if
// the runs did not include both merging and non-merging ones.
func (o *roundOracle) report(t *testing.T, mode string) {
	t.Helper()
	for _, e := range o.refWrong {
		t.Error(e)
	}
	t.Logf("%d %s runs, %d merging; %d of them skipped by the allocator", o.runs, mode, o.merging, o.skipped)
	if o.refBad > 0 || o.skipMerged > 0 {
		t.Fatalf("%d of %d runs differ from the reference, and %d of %d skipped rounds merged", o.refBad, o.runs, o.skipMerged, o.skipped)
	}
	if o.merging == 0 || o.merging == o.runs {
		t.Fatalf("%d of %d runs merged; the oracle needs both kinds", o.merging, o.runs)
	}
}

// TestAggressiveRoundsMatchReference holds every aggressive run the
// allocator makes to the reference aggressive round loop, which
// rescans, rewrites and recomputes everything every round.
func TestAggressiveRoundsMatchReference(t *testing.T) {
	o := new(roundOracle)
	restore := o.watch(true, false)
	allocateAggressive(t, oracleUnits(t), &o.got, &o.label)
	restore()
	o.report(t, "aggressive")
}

// TestConservativeRoundsMatchReference holds every conservative run the
// allocator makes, irc's spill rounds included, to the reference
// conservative round loop, which builds the graph, rewrites f and
// re-solves liveness every round.
func TestConservativeRoundsMatchReference(t *testing.T) {
	conservativeOracle(t).report(t, "conservative")
}

// sameCode reports whether a and b have the same parameters and the
// same instructions in every block: the parts of a function that
// coalescing rewrites. It is what comparing listings checks, without
// printing them.
func sameCode(a, b *ir.Func) bool {
	if !slices.Equal(a.Params, b.Params) || len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i, blk := range a.Blocks {
		if !slices.EqualFunc(blk.Instrs, b.Blocks[i].Instrs, func(x, y ir.Instr) bool {
			return x.Op == y.Op && x.Dst == y.Dst && x.A == y.A && x.B == y.B && x.C == y.C &&
				x.Imm == y.Imm && math.Float64bits(x.FImm) == math.Float64bits(y.FImm) &&
				x.Cmp == y.Cmp && x.Cls == y.Cls && x.Callee == y.Callee && slices.Equal(x.Args, y.Args)
		}) {
			return false
		}
	}
	return true
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
