package regalloc_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"regalloc"
	"regalloc/internal/color"
	"regalloc/internal/dataflow"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ig"
	"regalloc/internal/liverange"
	"regalloc/internal/spill"
	"regalloc/internal/workloads"
)

// decodeCounters returns counters[pass][name] summed from a JSON
// trace, how many times each was emitted, and how many of those
// emissions fell inside a coalesce span. Duplicate emissions of a
// per-pass counter are a bug the caller can catch by checking
// counts[pass][name].
func decodeCounters(t *testing.T, buf *bytes.Buffer) (values map[int]map[string]int64, counts, inCoalesce map[int]map[string]int) {
	t.Helper()
	values = map[int]map[string]int64{}
	counts = map[int]map[string]int{}
	inCoalesce = map[int]map[string]int{}
	open := false
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev traceLine
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("invalid JSON line %q: %v", ln, err)
		}
		if ev.Phase == "coalesce" && (ev.Kind == "span_begin" || ev.Kind == "span_end") {
			open = ev.Kind == "span_begin"
		}
		if ev.Kind != "counter" {
			continue
		}
		if values[ev.Pass] == nil {
			values[ev.Pass] = map[string]int64{}
			counts[ev.Pass] = map[string]int{}
			inCoalesce[ev.Pass] = map[string]int{}
		}
		values[ev.Pass][ev.Name] += ev.Value
		counts[ev.Pass][ev.Name]++
		if open {
			inCoalesce[ev.Pass][ev.Name]++
		}
	}
	return values, counts, inCoalesce
}

// TestAnalysisRunsOncePerPass is the witness for the pass-level
// analysis cache: with coalescing off, a pass that starts fresh
// computes liveness exactly once and runs the CFG analysis exactly
// once, and a pass that starts from the analysis the last plain spill
// carried runs neither. Pass 0 and every split-mode pass start fresh,
// since split spill code adds blocks. The counters the passCtx
// publishes make the contract checkable from the outside instead of
// relying on code inspection.
func TestAnalysisRunsOncePerPass(t *testing.T) {
	prog, err := regalloc.Compile(pressure)
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []bool{false, true} {
		var buf bytes.Buffer
		opt := regalloc.DefaultOptions()
		opt.Coalesce = false
		opt.Split = split
		opt.KInt = 4 // force several passes
		opt.Observer = regalloc.NewJSONSink(&buf)
		res, err := prog.Allocate("PRESS", opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Passes) < 2 {
			t.Fatal("test premise broken: PRESS at KInt=4 should need several passes")
		}
		values, counts, _ := decodeCounters(t, &buf)
		for pass := range res.Passes {
			want := int64(0)
			if pass == 0 || split {
				want = 1
			}
			for _, name := range []string{"analysis.liveness_runs", "analysis.cfg_runs"} {
				if got := values[pass][name]; got != want {
					t.Errorf("split=%v pass %d: %s = %d, want exactly %d", split, pass, name, got, want)
				}
				if n := counts[pass][name]; n != 1 {
					t.Errorf("split=%v pass %d: %s emitted %d times", split, pass, name, n)
				}
			}
		}
	}
}

// TestAnalysisCacheUnderCoalescing: in split mode every pass starts
// fresh, and a coalescing pass runs the CFG analysis exactly once,
// since merges never touch blocks, which pins the fix for the double
// cfg.Analyze in split mode. Coalescing, in either mode, keeps the
// liveness it is handed current by recomputing only each merged
// register, so every pass computes liveness exactly once, to
// renumber; the post-coalesce renumbering reuses the coalescer's final
// sets. An aggressive run builds no graph, so with or without a
// machine model, whose graph the coalescer could not build anyway,
// each of its passes builds one graph, after the coalesce span.
func TestAnalysisCacheUnderCoalescing(t *testing.T) {
	prog, err := regalloc.Compile(pressure)
	if err != nil {
		t.Fatal(err)
	}
	for _, conservative := range []bool{false, true} {
		for _, machine := range []bool{false, true} {
			var buf bytes.Buffer
			opt := regalloc.DefaultOptions()
			opt.Split = true
			opt.KInt = 4
			opt.ConservativeCoalesce = conservative
			if machine {
				opt.Machine = regalloc.MachineFor(regalloc.RTPC().WithGPR(opt.KInt))
			}
			opt.Observer = regalloc.NewJSONSink(&buf)
			res, err := prog.Allocate("PRESS", opt)
			if err != nil {
				t.Fatal(err)
			}
			values, counts, inCoalesce := decodeCounters(t, &buf)
			merged, idle := false, false
			for pass := range res.Passes {
				if got := values[pass]["analysis.cfg_runs"]; got != 1 {
					t.Errorf("conservative=%v machine=%v pass %d: analysis.cfg_runs = %d, want exactly 1", conservative, machine, pass, got)
				}
				rounds := values[pass]["coalesce.rounds"]
				if rounds < 1 {
					t.Fatalf("conservative=%v machine=%v pass %d: coalesce.rounds = %d; every pass coalesces", conservative, machine, pass, rounds)
				}
				if got := values[pass]["analysis.liveness_runs"]; got != 1 {
					t.Errorf("conservative=%v machine=%v pass %d: analysis.liveness_runs = %d, want exactly 1 (coalesce.rounds = %d)",
						conservative, machine, pass, got, rounds)
				}
				if !conservative {
					if n := counts[pass]["ig.edge_inserts"]; n != 1 {
						t.Errorf("machine=%v pass %d: %d graph builds, want exactly 1 (coalesce.rounds = %d)", machine, pass, n, rounds)
					}
					if n := inCoalesce[pass]["ig.edge_inserts"]; n != 0 {
						t.Errorf("machine=%v pass %d: %d graph builds inside the coalesce span", machine, pass, n)
					}
				}
				merged = merged || rounds > 1
				idle = idle || rounds == 1
			}
			if !merged || !idle {
				t.Fatalf("test premise broken: PRESS needs passes that merge and passes that merge nothing (conservative=%v machine=%v, merged=%v, idle=%v)",
					conservative, machine, merged, idle)
			}
		}
	}
}

// fuzzCorpus compiles a deterministic set of fuzz-generated routines.
func fuzzCorpus(t *testing.T, n int) []*regalloc.Program {
	t.Helper()
	var progs []*regalloc.Program
	for seed := uint64(1); len(progs) < n; seed++ {
		src := fuzzgen.Generate(seed, fuzzgen.Config{MaxStmts: 40, MaxDepth: 3})
		prog, err := regalloc.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		progs = append(progs, prog)
	}
	return progs
}

// TestBriggsSpillsSubsetOfChaitin is the paper's central claim as a
// differential property: on the same first-pass graph and costs, the
// nodes the optimistic heuristic actually spills are a subset of the
// nodes Chaitin's pessimistic rule marks — optimism can only rescue
// marked nodes, never create new spills.
func TestBriggsSpillsSubsetOfChaitin(t *testing.T) {
	kf := color.NumColors(4, 4) // small files so the corpus spills
	for i, prog := range fuzzCorpus(t, 25) {
		f := prog.Func("FZ").Clone()
		liverange.Renumber(f)
		lv := dataflow.ComputeLiveness(f)
		g := ig.BuildWithLiveness(f, lv, 0, nil)
		costs := spill.Costs(f, spill.DefaultCostParams())

		chaitin := color.Run(nil, g, nil, costs, kf, color.Chaitin, color.CostOverDegree, nil).Spilled
		marked := map[int32]bool{}
		for _, n := range chaitin {
			marked[n] = true
		}

		uncolored := color.Run(nil, g, nil, costs, kf, color.Briggs, color.CostOverDegree, nil).Spilled
		for _, n := range uncolored {
			if !marked[n] {
				t.Errorf("corpus %d: Briggs spilled v%d which Chaitin never marked", i, n)
			}
		}
		if len(uncolored) > len(chaitin) {
			t.Errorf("corpus %d: Briggs spilled %d > Chaitin's %d",
				i, len(uncolored), len(chaitin))
		}
	}
}

// TestWorkersEquivalence: Workers sizes only the whole-program
// worker pool, so it must never change an allocation — same colors,
// same per-pass statistics — on fuzzed routines and on the paper's
// SVD workload.
func TestWorkersEquivalence(t *testing.T) {
	check := func(t *testing.T, prog *regalloc.Program, name string) {
		t.Helper()
		opt := regalloc.DefaultOptions()
		opt.KInt, opt.KFloat = 8, 4 // pressure enough to spill somewhere
		base, err := prog.Allocate(name, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Workers = 4
		par, err := prog.Allocate(name, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(base.Colors) != len(par.Colors) {
			t.Fatalf("%s: color vector lengths differ: %d vs %d", name, len(base.Colors), len(par.Colors))
		}
		for i := range base.Colors {
			if base.Colors[i] != par.Colors[i] {
				t.Fatalf("%s: color of v%d differs: %d vs %d", name, i, base.Colors[i], par.Colors[i])
			}
		}
		if len(base.Passes) != len(par.Passes) {
			t.Fatalf("%s: pass counts differ: %d vs %d", name, len(base.Passes), len(par.Passes))
		}
		for i := range base.Passes {
			a, b := base.Passes[i], par.Passes[i]
			a.Build, a.Simplify, a.Color, a.Spill = 0, 0, 0, 0
			b.Build, b.Simplify, b.Color, b.Spill = 0, 0, 0, 0
			if a != b {
				t.Fatalf("%s: pass %d stats differ:\n w1 %+v\n w4 %+v", name, i, a, b)
			}
		}
	}
	for _, prog := range fuzzCorpus(t, 10) {
		check(t, prog, "FZ")
	}
	svd, err := regalloc.Compile(workloads.SVD().Source)
	if err != nil {
		t.Fatal(err)
	}
	check(t, svd, "SVD")
}
