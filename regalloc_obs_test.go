package regalloc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"regalloc"
	"regalloc/internal/vm"
)

// pressure is a routine with enough simultaneously-live values to
// spill on a small register file, so traces contain spill decisions
// and (under Briggs) color-reuse events.
const pressure = `
      INTEGER FUNCTION PRESS(N)
      INTEGER A,B,C,D,E,F,G,H,I,N
      A = 1
      B = 2
      C = 3
      D = 4
      E = 5
      F = 6
      G = 7
      H = 8
      DO I = 1,N
         A = A + B
         B = B + C
         C = C + D
         D = D + E
         E = E + F
         F = F + G
         G = G + H
         H = H + A
      ENDDO
      PRESS = A + B + C + D + E + F + G + H
      END
`

func TestOptionsValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*regalloc.Options)
		want   error
	}{
		{"zero kint", func(o *regalloc.Options) { o.KInt = 0 }, regalloc.ErrBadK},
		{"negative kfloat", func(o *regalloc.Options) { o.KFloat = -2 }, regalloc.ErrBadK},
		{"bad heuristic", func(o *regalloc.Options) { o.Heuristic = 99 }, regalloc.ErrBadHeuristic},
		{"bad metric", func(o *regalloc.Options) { o.Metric = -1 }, regalloc.ErrBadMetric},
		{"split+remat", func(o *regalloc.Options) { o.Split = true; o.Rematerialize = true }, regalloc.ErrConflictingSpillModes},
		{"negative workers", func(o *regalloc.Options) { o.Workers = -1 }, regalloc.ErrBadWorkers},
	}
	for _, tc := range cases {
		opt := regalloc.DefaultOptions()
		tc.mutate(&opt)
		if err := opt.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate() = %v, want %v", tc.name, err, tc.want)
		}
	}
	if err := regalloc.DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
}

// TestAllocateValidatesLoudly: misuse surfaces from the public entry
// points as typed errors, not as silent repairs.
func TestAllocateValidatesLoudly(t *testing.T) {
	prog, err := regalloc.Compile(demo)
	if err != nil {
		t.Fatal(err)
	}
	opt := regalloc.DefaultOptions()
	opt.Split = true
	opt.Rematerialize = true
	if _, err := prog.Allocate("FIB", opt); !errors.Is(err, regalloc.ErrConflictingSpillModes) {
		t.Fatalf("Allocate: %v, want ErrConflictingSpillModes", err)
	}
	opt = regalloc.DefaultOptions()
	opt.Workers = -5
	if _, _, err := prog.Assemble(regalloc.RTPC(), opt); !errors.Is(err, regalloc.ErrBadWorkers) {
		t.Fatalf("Assemble: %v, want ErrBadWorkers", err)
	}
}

// TestAssembleContextCancellation: a cancelled context aborts the
// whole-program run with the context's error.
func TestAssembleContextCancellation(t *testing.T) {
	prog, err := regalloc.Compile(demo)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := prog.AssembleContext(ctx, regalloc.RTPC(), regalloc.DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestAssembleContextBoundedWorkers: the pool honours Workers and
// still produces the same deterministic output as the default.
func TestAssembleContextBoundedWorkers(t *testing.T) {
	prog, err := regalloc.Compile(demo + pressure)
	if err != nil {
		t.Fatal(err)
	}
	opt := regalloc.DefaultOptions()
	opt.Workers = 1
	code, results, err := prog.AssembleContext(context.Background(), regalloc.RTPC(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || code.Func("FIB") == nil || code.Func("PRESS") == nil {
		t.Fatalf("results: %v", results)
	}
	v, err := regalloc.NewVM(code, prog.MemWords()).Call("FIB", vm.Int(30))
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 832040 {
		t.Fatalf("fib(30) = %d", v.I)
	}
}

// traceLine is the decoded wire form of one JSON trace event.
type traceLine struct {
	Kind   string  `json:"kind"`
	Unit   string  `json:"unit"`
	Pass   int     `json:"pass"`
	Phase  string  `json:"phase"`
	DurNS  int64   `json:"dur_ns"`
	Name   string  `json:"name"`
	Value  int64   `json:"value"`
	Node   int32   `json:"node"`
	Cost   float64 `json:"cost"`
	Metric float64 `json:"metric"`
}

// TestJSONTraceReconcilesWithPassStats is the golden-trace test: a
// traced allocation emits exactly one span per executed phase per
// pass, and every span's duration equals the corresponding PassStats
// field, so the live stream and the post-hoc record cannot drift.
func TestJSONTraceReconcilesWithPassStats(t *testing.T) {
	prog, err := regalloc.Compile(pressure)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	opt := regalloc.DefaultOptions()
	opt.KInt = 4 // force spilling so every phase appears
	opt.Observer = regalloc.NewJSONSink(&buf)
	res, err := prog.Allocate("PRESS", opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSpilled() == 0 {
		t.Fatal("test premise broken: PRESS must spill at KInt=4")
	}

	// spans[pass][phase] = duration; counts detect duplicates.
	spans := map[int]map[string]time.Duration{}
	rounds := map[int]int64{} // coalesce.rounds by pass
	var decisions int
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev traceLine
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("invalid JSON line %q: %v", ln, err)
		}
		if ev.Unit != "PRESS" {
			t.Fatalf("wrong unit in %q", ln)
		}
		switch ev.Kind {
		case "span_end":
			if spans[ev.Pass] == nil {
				spans[ev.Pass] = map[string]time.Duration{}
			}
			if _, dup := spans[ev.Pass][ev.Phase]; dup {
				t.Fatalf("duplicate %s span in pass %d", ev.Phase, ev.Pass)
			}
			spans[ev.Pass][ev.Phase] = time.Duration(ev.DurNS)
		case "counter":
			if ev.Name == "coalesce.rounds" {
				rounds[ev.Pass] += ev.Value
			}
		case "spill_decision":
			if ev.Cost <= 0 || ev.Metric <= 0 {
				t.Fatalf("spill decision without cost/metric: %q", ln)
			}
			decisions++
		}
	}
	if decisions == 0 {
		t.Fatal("no spill decisions traced despite spilling")
	}
	if len(spans) != len(res.Passes) {
		t.Fatalf("traced %d passes, PassStats has %d", len(spans), len(res.Passes))
	}
	for i, ps := range res.Passes {
		got := spans[i]
		wants := map[string]time.Duration{
			"build":    ps.Build,
			"simplify": ps.Simplify,
			"color":    ps.Color,
			"spill":    ps.Spill,
		}
		for phase, want := range wants {
			if want == 0 {
				continue // phase not executed this pass (e.g. spill on the final one)
			}
			if got[phase] != want {
				t.Errorf("pass %d %s: trace %v, PassStats %v", i, phase, got[phase], want)
			}
		}
		// Coalescing is on by default. A pass that ran a round has a
		// coalesce span nested in build; a pass that skipped the round
		// that could not merge has none.
		d, ok := got["coalesce"]
		switch {
		case rounds[i] > 0 && (!ok || d > got["build"]):
			t.Errorf("pass %d ran %d rounds: coalesce span missing or larger than build (%v vs %v)", i, rounds[i], d, got["build"])
		case rounds[i] == 0 && ok:
			t.Errorf("pass %d ran no round but has a coalesce span", i)
		}
	}
	if rounds[0] == 0 || len(rounds) == len(res.Passes) {
		t.Fatalf("test premise broken: pass 0 must run a round and a later pass skip it (rounds by pass %v)", rounds)
	}
}

// TestMetricsThroughParallelAssemble: a shared MetricsSink observes
// a whole-program parallel allocation (the -race check for the
// observer path) and its aggregates agree with the per-unit results.
func TestMetricsThroughParallelAssemble(t *testing.T) {
	var src strings.Builder
	src.WriteString(demo)
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&src, strings.ReplaceAll(pressure, "PRESS", fmt.Sprintf("PR%d", i)))
	}
	prog, err := regalloc.Compile(src.String())
	if err != nil {
		t.Fatal(err)
	}
	ms := regalloc.NewMetricsSink()
	opt := regalloc.DefaultOptions()
	opt.Observer = ms
	_, results, err := prog.Assemble(regalloc.RTPC().WithGPR(4), opt)
	if err != nil {
		t.Fatal(err)
	}
	var wantSpills int64
	for _, res := range results {
		wantSpills += int64(res.TotalSpilled())
	}
	snap := ms.Snapshot()
	if got := snap.Counters["spill/spill.ranges"]; got != wantSpills {
		t.Fatalf("metrics counted %d spilled ranges, results say %d", got, wantSpills)
	}
	if snap.Counters["build/graph.nodes"] == 0 || snap.Durations["build"].Count == 0 {
		t.Fatalf("missing aggregates: %+v", snap)
	}
	// Every unit ran at least one pass, each emitting one build span.
	if snap.Durations["build"].Count < int64(len(results)) {
		t.Fatalf("build spans %d < units %d", snap.Durations["build"].Count, len(results))
	}
}

// TestObserverOverheadSmokeTest: a nil Observer must not change
// results — same spills, same colors — versus an observed run.
func TestObserverNilVsSinkSameResult(t *testing.T) {
	prog, err := regalloc.Compile(pressure)
	if err != nil {
		t.Fatal(err)
	}
	opt := regalloc.DefaultOptions()
	opt.KInt = 4
	plain, err := prog.Allocate("PRESS", opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Observer = regalloc.NewJSONSink(new(bytes.Buffer))
	traced, err := prog.Allocate("PRESS", opt)
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalSpilled() != traced.TotalSpilled() || len(plain.Passes) != len(traced.Passes) {
		t.Fatalf("observation changed the allocation: %d/%d passes, %d/%d spills",
			len(plain.Passes), len(traced.Passes), plain.TotalSpilled(), traced.TotalSpilled())
	}
	for i, c := range plain.Colors {
		if traced.Colors[i] != c {
			t.Fatalf("color of v%d differs: %d vs %d", i, c, traced.Colors[i])
		}
	}
}
