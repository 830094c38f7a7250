package cfg_test

import (
	"fmt"
	"reflect"
	"testing"

	"regalloc"
	"regalloc/internal/cfg"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ir"
	"regalloc/internal/workloads"
)

// oracleUnits returns every unit of the suite plus QSORT, of 200
// generated programs under the default generator config and 200
// under a larger one, and of many-loop units of 300 and 513 loops,
// each as the front end leaves it and as the optimizer leaves it.
func oracleUnits(tb testing.TB) []*ir.Func {
	var srcs []string
	for _, w := range append(workloads.All(), workloads.Quicksort(), workloads.Loops(300), workloads.Loops(513)) {
		srcs = append(srcs, w.Source)
	}
	for _, c := range []fuzzgen.Config{{}, {MaxStmts: 40, MaxDepth: 5}} {
		for seed := uint64(0); seed < 200; seed++ {
			srcs = append(srcs, fuzzgen.Generate(seed, c))
		}
	}
	var fs []*ir.Func
	for _, src := range srcs {
		for _, compile := range []func(string) (*regalloc.Program, error){regalloc.CompileNoOpt, regalloc.Compile} {
			prog, err := compile(src)
			if err != nil {
				tb.Fatal(err)
			}
			fs = append(fs, prog.IR.Funcs...)
		}
	}
	return fs
}

// diffInfo reports the first way got differs from want in reverse
// postorder, dominators, depths or loops.
func diffInfo(got, want *cfg.Info) error {
	switch {
	case !reflect.DeepEqual(got.RPO, want.RPO):
		return fmt.Errorf("RPO %v, want %v", got.RPO, want.RPO)
	case !reflect.DeepEqual(got.RPONum, want.RPONum):
		return fmt.Errorf("RPONum %v, want %v", got.RPONum, want.RPONum)
	case !reflect.DeepEqual(got.IDom, want.IDom):
		return fmt.Errorf("IDom %v, want %v", got.IDom, want.IDom)
	case !reflect.DeepEqual(got.Depth, want.Depth):
		return fmt.Errorf("Depth %v, want %v", got.Depth, want.Depth)
	case !reflect.DeepEqual(got.Loops, want.Loops):
		return fmt.Errorf("Loops %v, want %v", got.Loops, want.Loops)
	}
	return nil
}

// TestAnalyzeMatchesReference checks Analyze against the map-based
// reference on every oracle unit, before and after optimization.
func TestAnalyzeMatchesReference(t *testing.T) {
	loops := 0
	for _, f := range oracleUnits(t) {
		want := cfg.AnalyzeRef(f)
		got := cfg.Analyze(f)
		if err := diffInfo(got, want); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for _, b := range f.Blocks {
			if b.Depth != want.Depth[b.ID] {
				t.Fatalf("%s: b%d stamped depth %d, want %d", f.Name, b.ID, b.Depth, want.Depth[b.ID])
			}
		}
		loops += len(got.Loops)
	}
	t.Logf("%d loops checked", loops)
}

// TestAddPreheaderMatchesAnalyze inserts a preheader for each loop
// of every oracle unit in turn, keeps the first analysis current
// with AddPreheader, and checks it against a fresh analysis after
// every insertion.
func TestAddPreheaderMatchesAnalyze(t *testing.T) {
	inserted := 0
	for _, f := range oracleUnits(t) {
		if testing.Short() && len(f.Blocks) > 500 {
			continue
		}
		f = f.Clone()
		info := cfg.Analyze(f)
		for i := range info.Loops {
			header := info.Loops[i].Header
			pre := cfg.InsertPreheader(f, info.Loops[i])
			info.AddPreheader(f, header, pre.ID)
			inserted++
			want := cfg.AnalyzeRef(f)
			if err := diffInfo(info, want); err != nil {
				t.Fatalf("%s, preheader b%d for the loop at b%d: %v", f.Name, pre.ID, header, err)
			}
			if pre.Depth != want.Depth[pre.ID] {
				t.Fatalf("%s: preheader b%d stamped depth %d, want %d", f.Name, pre.ID, pre.Depth, want.Depth[pre.ID])
			}
			if err := ir.Validate(f); err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
		}
	}
	t.Logf("%d preheaders checked", inserted)
}
