// Benchmarks regenerating the paper's tables and figures, plus
// micro-benchmarks of the allocator phases. One benchmark per
// table/figure (see DESIGN.md §3):
//
//	BenchmarkFigure3            — the 4-cycle example graph
//	BenchmarkFigure5Allocate    — static allocation of the full suite
//	BenchmarkFigure5Dynamic     — the simulated dynamic runs
//	BenchmarkFigure6Quicksort   — the register-set study
//	BenchmarkFigure7Phases      — phase times on the four big routines
//
// Run with: go test -bench=. -benchmem
package regalloc_test

import (
	"testing"

	"regalloc"
	"regalloc/internal/alloc"
	"regalloc/internal/coalesce"
	"regalloc/internal/color"
	"regalloc/internal/dataflow"
	"regalloc/internal/experiments"
	"regalloc/internal/graphgen"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/liverange"
	"regalloc/internal/workloads"
)

// BenchmarkFigure3 colors the paper's Figure 3 example (C4 with two
// colors) under both heuristics.
func BenchmarkFigure3(b *testing.B) {
	g, costs := graphgen.Cycle(4)
	k := func(ir.Class) int { return 2 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		color.Run(nil, g, nil, costs, k, color.Briggs, color.CostOverDegree, nil)
	}
}

// BenchmarkFigure5Allocate performs the static half of Figure 5:
// allocating every routine of every program with both heuristics on
// the paper's machine.
func BenchmarkFigure5Allocate(b *testing.B) {
	type unit struct {
		prog *regalloc.Program
		name string
	}
	var units []unit
	for _, w := range workloads.All() {
		prog, err := regalloc.Compile(w.Source)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range w.Routines {
			units = append(units, unit{prog, r})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			for _, h := range []regalloc.Heuristic{regalloc.Chaitin, regalloc.Briggs} {
				opt := regalloc.DefaultOptions()
				opt.Heuristic = h
				if _, err := u.prog.Allocate(u.name, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFigure5Dynamic runs each program's dynamic scenario on
// the simulator (code compiled with the new heuristic).
func BenchmarkFigure5Dynamic(b *testing.B) {
	for _, d := range experiments.Drivers() {
		d := d
		b.Run(d.Workload.Program, func(b *testing.B) {
			prog, err := regalloc.Compile(d.Workload.Source)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := experiments.NewVMEngine(prog, regalloc.Briggs, regalloc.RTPC())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Run(eng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure6Quicksort sorts on the simulator at the most
// constrained register count of the Figure 6 study.
func BenchmarkFigure6Quicksort(b *testing.B) {
	prog, err := regalloc.Compile(workloads.Quicksort().Source)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{16, 8} {
		k := k
		b.Run(map[int]string{16: "k16", 8: "k8"}[k], func(b *testing.B) {
			eng, err := experiments.NewVMEngine(prog, regalloc.Briggs, regalloc.RTPC().WithGPR(k))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunQuicksortN(eng, 20000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure7Phases allocates the paper's four large routines,
// the measurement behind the phase-time table.
func BenchmarkFigure7Phases(b *testing.B) {
	svd, err := regalloc.Compile(workloads.SVD().Source)
	if err != nil {
		b.Fatal(err)
	}
	ced, err := regalloc.Compile(workloads.Cedeta().Source)
	if err != nil {
		b.Fatal(err)
	}
	units := []struct {
		prog *regalloc.Program
		name string
	}{
		{ced, "DQRDC"}, {svd, "SVD"}, {ced, "GRADNT"}, {ced, "HSSIAN"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			for _, h := range []regalloc.Heuristic{regalloc.Chaitin, regalloc.Briggs} {
				opt := regalloc.DefaultOptions()
				opt.Heuristic = h
				if _, err := u.prog.Allocate(u.name, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// --- phase micro-benchmarks on the largest routine ---

func svdFunc(b *testing.B) *ir.Func {
	prog, err := regalloc.Compile(workloads.SVD().Source)
	if err != nil {
		b.Fatal(err)
	}
	return prog.Func("SVD")
}

func BenchmarkRenumber(b *testing.B) {
	f := svdFunc(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := f.Clone()
		liverange.Renumber(g)
	}
}

func BenchmarkLiveness(b *testing.B) {
	f := svdFunc(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dataflow.ComputeLiveness(f)
	}
}

// BenchmarkGraphBuild times the graph build alone: BuildWithLiveness
// on the webs of SVD, GRADNT and HSSIAN (632, 1,325 and 1,671 webs),
// from a liveness computed once outside the timed loop.
func BenchmarkGraphBuild(b *testing.B) {
	svd, err := regalloc.Compile(workloads.SVD().Source)
	if err != nil {
		b.Fatal(err)
	}
	ced, err := regalloc.Compile(workloads.Cedeta().Source)
	if err != nil {
		b.Fatal(err)
	}
	for _, u := range []struct {
		prog *regalloc.Program
		name string
	}{{svd, "SVD"}, {ced, "GRADNT"}, {ced, "HSSIAN"}} {
		work := u.prog.Func(u.name).Clone()
		lv := liverange.Renumber(work)
		b.Run(u.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchGraph = ig.BuildWithLiveness(work, lv, 0, nil)
			}
		})
	}
}

// benchGraph keeps BenchmarkGraphBuild's result live.
var benchGraph *ig.Graph

func BenchmarkCoalesce(b *testing.B) {
	f := svdFunc(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := f.Clone()
		liverange.Renumber(work)
		coalesce.Run(work)
	}
}

// BenchmarkSimplifySelect measures the heart of the paper: simplify
// + select on a large random graph, per heuristic.
func BenchmarkSimplifySelect(b *testing.B) {
	g, costs := graphgen.Random(2000, 0.01, 1)
	k := func(ir.Class) int { return 16 }
	for _, h := range []color.Heuristic{color.Chaitin, color.Briggs, color.MatulaBeck} {
		h := h
		b.Run(h.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				color.Run(nil, g, nil, costs, k, h, color.CostOverDegree, nil)
			}
		})
	}
}

// BenchmarkFullAllocSVD measures one complete Figure 4 cycle set on
// the paper's central routine.
func BenchmarkFullAllocSVD(b *testing.B) {
	f := svdFunc(b)
	for _, h := range []color.Heuristic{color.Chaitin, color.Briggs} {
		h := h
		b.Run(h.String(), func(b *testing.B) {
			opt := alloc.DefaultOptions()
			opt.Heuristic = h
			for i := 0; i < b.N; i++ {
				if _, err := alloc.Run(f, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile measures the front end on the whole LINPACK
// source.
func BenchmarkCompile(b *testing.B) {
	src := workloads.LINPACK().Source
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regalloc.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}
