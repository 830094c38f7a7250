package experiments

import (
	"fmt"
	"strings"

	"regalloc"
	"regalloc/internal/asm"
	"regalloc/internal/color"
	"regalloc/internal/graphgen"
	"regalloc/internal/ir"
	"regalloc/internal/spill"
	"regalloc/internal/workloads"
)

// AblationResult holds the design-choice studies DESIGN.md §7 calls
// out: the spill-choice metric, coalescing, the depth weight in the
// cost estimator, where optimistic coloring's benefit concentrates
// as graphs get denser, and Chaitin's never-killed-value
// rematerialization refinement.
type AblationResult struct {
	Metric   []MetricRow
	Coalesce []CoalesceRow
	Depth    []DepthRow
	Density  []DensityRow
	Remat    []RematRow
	Split    []SplitRow
}

// SplitRow compares spill-everywhere against live-range splitting
// (§4 future work) on a register-starved dynamic run.
type SplitRow struct {
	Scenario     string
	CyclesEvery  uint64
	CyclesSplit  uint64
	SplitReloads int
}

// RematRow compares spilling with and without constant
// rematerialization.
type RematRow struct {
	Routine    string
	Off        Outcome
	On         Outcome
	OffSlots   int64
	OnSlots    int64
	OnRematOps int
}

// MetricRow compares spill-choice metrics on one routine (§2.3's
// "final refinement": cost/degree vs alternatives, plus the
// cost-blind Matula–Beck ordering).
type MetricRow struct {
	Routine        string
	CostOverDegree Outcome
	CostOnly       Outcome
	DegreeOnly     Outcome
	MatulaBeck     Outcome // cost-blind comparator; may fail
}

// Outcome is one allocator configuration's result.
type Outcome struct {
	OK        bool
	Spilled   int
	SpillCost float64
}

// CoalesceRow compares coalescing modes: the paper's aggressive
// coalescing, the Briggs-1994 conservative test, and none.
type CoalesceRow struct {
	Routine            string
	OnSpilled          int
	OnObjectSize       int
	OffSpilled         int
	OffObjectSize      int
	OnCoalescedMoves   int
	ConsSpilled        int
	ConsObjectSize     int
	ConsCoalescedMoves int
}

// DepthRow compares loop-depth weights in the cost estimator.
type DepthRow struct {
	Routine    string
	Base10     Outcome
	Base2      Outcome
	DeepRanges bool
}

// DensityRow shows Chaitin vs Briggs spills on random graphs of
// growing density (the §3.2 claim: optimism helps most in highly
// constrained situations).
type DensityRow struct {
	P              float64
	ChaitinSpilled int
	BriggsSpilled  int
}

// ablationRoutines are the pressured routines worth ablating.
var ablationRoutines = []struct{ program, routine string }{
	{"SVD", "SVD"},
	{"EULER", "DISSIP"},
	{"LINPACK", "DMXPY"},
	{"SIMPLEX", "SIMPLEX"},
}

// Ablations runs the design-choice studies.
func Ablations() (*AblationResult, error) {
	res := &AblationResult{}
	progs := make(map[string]*regalloc.Program)
	for _, w := range workloads.All() {
		p, err := regalloc.Compile(w.Source)
		if err != nil {
			return nil, err
		}
		progs[w.Program] = p
	}

	runWith := func(prog *regalloc.Program, routine string, mutate func(*regalloc.Options)) Outcome {
		opt := defaultOptions()
		mutate(&opt)
		r, err := prog.Allocate(routine, opt)
		if err != nil {
			return Outcome{OK: false}
		}
		return Outcome{OK: true, Spilled: r.FirstPassSpilled(), SpillCost: r.FirstPassSpillCost()}
	}

	// 1. Spill-choice metric.
	for _, ar := range ablationRoutines {
		prog := progs[ar.program]
		row := MetricRow{Routine: ar.routine}
		row.CostOverDegree = runWith(prog, ar.routine, func(o *regalloc.Options) { o.Metric = color.CostOverDegree })
		row.CostOnly = runWith(prog, ar.routine, func(o *regalloc.Options) { o.Metric = color.CostOnly })
		row.DegreeOnly = runWith(prog, ar.routine, func(o *regalloc.Options) { o.Metric = color.DegreeOnly })
		row.MatulaBeck = runWith(prog, ar.routine, func(o *regalloc.Options) { o.Heuristic = regalloc.MatulaBeck })
		res.Metric = append(res.Metric, row)
	}

	// 2. Coalescing on/off.
	machine := regalloc.RTPC()
	for _, ar := range ablationRoutines {
		prog := progs[ar.program]
		row := CoalesceRow{Routine: ar.routine}
		for _, mode := range []string{"aggressive", "conservative", "off"} {
			opt := defaultOptions()
			opt.Coalesce = mode != "off"
			opt.ConservativeCoalesce = mode == "conservative"
			r, err := prog.Allocate(ar.routine, opt)
			if err != nil {
				return nil, err
			}
			lowered, err := asm.Lower(r.Func, r.Colors, machine)
			if err != nil {
				return nil, err
			}
			switch mode {
			case "aggressive":
				row.OnSpilled = r.FirstPassSpilled()
				row.OnObjectSize = lowered.ObjectSize()
				row.OnCoalescedMoves = r.Passes[0].CoalescedMoves
			case "conservative":
				row.ConsSpilled = r.FirstPassSpilled()
				row.ConsObjectSize = lowered.ObjectSize()
				row.ConsCoalescedMoves = r.Passes[0].CoalescedMoves
			default:
				row.OffSpilled = r.FirstPassSpilled()
				row.OffObjectSize = lowered.ObjectSize()
			}
		}
		res.Coalesce = append(res.Coalesce, row)
	}

	// 3. Depth weighting.
	for _, ar := range ablationRoutines {
		prog := progs[ar.program]
		row := DepthRow{Routine: ar.routine}
		row.Base10 = runWith(prog, ar.routine, func(o *regalloc.Options) {
			o.CostParams = spill.CostParams{DepthBase: 10, MemOpWeight: 2}
		})
		row.Base2 = runWith(prog, ar.routine, func(o *regalloc.Options) {
			o.CostParams = spill.CostParams{DepthBase: 2, MemOpWeight: 2}
		})
		res.Depth = append(res.Depth, row)
	}

	// 4. Rematerialization of never-killed (constant) values.
	for _, ar := range ablationRoutines {
		prog := progs[ar.program]
		row := RematRow{Routine: ar.routine}
		for _, on := range []bool{false, true} {
			opt := defaultOptions()
			opt.Rematerialize = on
			r, err := prog.Allocate(ar.routine, opt)
			if err != nil {
				return nil, err
			}
			o := Outcome{OK: true, Spilled: r.FirstPassSpilled(), SpillCost: r.FirstPassSpillCost()}
			if on {
				row.On = o
				row.OnSlots = r.Func.NumSlots
				for _, p := range r.Passes {
					row.OnRematOps += p.Remats
				}
			} else {
				row.Off = o
				row.OffSlots = r.Func.NumSlots
			}
		}
		res.Remat = append(res.Remat, row)
	}

	// 5. Live-range splitting vs spill-everywhere, measured
	// dynamically where spilling actually bites: quicksort and the
	// integer kernels on starved register files.
	splitScenarios := []struct {
		name string
		w    workloads.Workload
		run  DriverFunc
		k    int
	}{
		{"QSORT/k8", workloads.Quicksort(), func(e Engine) (uint64, error) { return RunQuicksortN(e, 50000) }, 8},
		{"INTKERN/k6", workloads.IntegerKernels(), runIntegerKernels, 6},
	}
	for _, sc := range splitScenarios {
		prog, err := regalloc.Compile(sc.w.Source)
		if err != nil {
			return nil, err
		}
		row := SplitRow{Scenario: sc.name}
		var digests [2]uint64
		for i, split := range []bool{false, true} {
			opt := defaultOptions()
			opt.Split = split
			opt.KInt = sc.k
			m := regalloc.RTPC().WithGPR(sc.k)
			code, results, err := prog.Assemble(m, opt)
			if err != nil {
				return nil, fmt.Errorf("%s split=%v: %w", sc.name, split, err)
			}
			eng := VMEngine{M: regalloc.NewVM(code, prog.MemWords())}
			digests[i], err = sc.run(eng)
			if err != nil {
				return nil, fmt.Errorf("%s split=%v: %w", sc.name, split, err)
			}
			if split {
				row.CyclesSplit = eng.M.Cycles
				for _, r := range results {
					for _, p := range r.Passes {
						row.SplitReloads += p.SplitLoads
					}
				}
			} else {
				row.CyclesEvery = eng.M.Cycles
			}
		}
		if digests[0] != digests[1] {
			return nil, fmt.Errorf("%s: splitting changed program results", sc.name)
		}
		res.Split = append(res.Split, row)
	}

	// 6. Optimism vs density on random graphs (k = 8, 120 nodes,
	// averaged over seeds).
	kf := func(ir.Class) int { return 8 }
	for _, p := range []float64{0.02, 0.05, 0.10, 0.15, 0.20, 0.30} {
		var chaitin, briggs int
		for seed := uint64(1); seed <= 10; seed++ {
			g, costs := graphgen.Random(120, p, seed)
			chaitin += len(color.Run(nil, g, nil, costs, kf, color.Chaitin, color.CostOverDegree, nil).Spilled)
			briggs += len(color.Run(nil, g, nil, costs, kf, color.Briggs, color.CostOverDegree, nil).Spilled)
		}
		res.Density = append(res.Density, DensityRow{P: p, ChaitinSpilled: chaitin, BriggsSpilled: briggs})
	}
	return res, nil
}

func (o Outcome) String() string {
	if !o.OK {
		return "fails"
	}
	return fmt.Sprintf("%d/%.0f", o.Spilled, o.SpillCost)
}

// String renders the ablation report.
func (r *AblationResult) String() string {
	var b strings.Builder
	b.WriteString("ablation 1: spill-choice metric (spilled ranges / estimated cost, first pass)\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %14s %16s\n", "routine", "cost/degree", "cost only", "degree only", "matula-beck")
	for _, row := range r.Metric {
		fmt.Fprintf(&b, "%-10s %14s %14s %14s %16s\n", row.Routine,
			row.CostOverDegree, row.CostOnly, row.DegreeOnly, row.MatulaBeck)
	}
	b.WriteString("\nablation 2: coalescing — aggressive (paper) vs conservative (Briggs 1994) vs off\n")
	fmt.Fprintf(&b, "%-10s | %7s %6s %6s | %7s %6s %6s | %7s %6s\n", "routine",
		"ag:spl", "size", "moves", "co:spl", "size", "moves", "off:spl", "size")
	for _, row := range r.Coalesce {
		fmt.Fprintf(&b, "%-10s | %7d %6d %6d | %7d %6d %6d | %7d %6d\n", row.Routine,
			row.OnSpilled, row.OnObjectSize, row.OnCoalescedMoves,
			row.ConsSpilled, row.ConsObjectSize, row.ConsCoalescedMoves,
			row.OffSpilled, row.OffObjectSize)
	}
	b.WriteString("\nablation 3: loop-depth cost weight (spilled / cost)\n")
	fmt.Fprintf(&b, "%-10s %16s %16s\n", "routine", "base 10 (paper)", "base 2")
	for _, row := range r.Depth {
		fmt.Fprintf(&b, "%-10s %16s %16s\n", row.Routine, row.Base10, row.Base2)
	}
	b.WriteString("\nablation 4: constant rematerialization (spilled/cost; memory slots; const reloads)\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %10s %10s %8s\n", "routine", "off", "on", "slots off", "slots on", "remats")
	for _, row := range r.Remat {
		fmt.Fprintf(&b, "%-10s %14s %14s %10d %10d %8d\n", row.Routine,
			row.Off, row.On, row.OffSlots, row.OnSlots, row.OnRematOps)
	}
	b.WriteString("\nablation 5: live-range splitting vs spill-everywhere (simulated cycles)\n")
	fmt.Fprintf(&b, "%-12s %14s %14s %6s %8s\n", "scenario", "everywhere", "split", "pct", "reloads")
	for _, row := range r.Split {
		fmt.Fprintf(&b, "%-12s %14d %14d %6.1f %8d\n", row.Scenario,
			row.CyclesEvery, row.CyclesSplit,
			pct(float64(row.CyclesEvery), float64(row.CyclesSplit)), row.SplitReloads)
	}
	b.WriteString("\nablation 6: optimism vs graph density (total spills over 10 seeds, n=120, k=8)\n")
	fmt.Fprintf(&b, "%6s %9s %8s %6s\n", "p", "chaitin", "briggs", "saved")
	for _, row := range r.Density {
		fmt.Fprintf(&b, "%6.2f %9d %8d %6d\n", row.P, row.ChaitinSpilled, row.BriggsSpilled,
			row.ChaitinSpilled-row.BriggsSpilled)
	}
	return b.String()
}
