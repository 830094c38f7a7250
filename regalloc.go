// Package regalloc reproduces the register allocator of Briggs,
// Cooper, Kennedy & Torczon, "Coloring Heuristics for Register
// Allocation" (PLDI 1989): a Chaitin-style graph-coloring allocator
// with the paper's optimistic coloring improvement, embedded in a
// complete mini-FORTRAN compiler targeting a simulated RT/PC-like
// machine.
//
// The typical flow is:
//
//	prog, err := regalloc.Compile(source)
//	res, err := prog.Allocate("SVD", regalloc.DefaultOptions())
//
// Result carries everything the paper measures: FirstPassSpilled and
// FirstPassSpillCost (Figure 5's static columns), TotalSpilled and
// TotalSpillCost (all passes), LiveRanges (the first graph's size),
// TotalTime (summed phase times), and the full per-pass PassStats
// slice in Result.Passes (Figure 7's per-phase durations plus graph
// sizes, coalesced moves, scan steps, and inserted spill code).
//
// For dynamic (simulated) measurements:
//
//	machine := regalloc.RTPC()
//	code, _, err := prog.Assemble(machine, opts)
//	m := regalloc.NewVM(code, memWords)
//	m.Call("QSORT", vm.Int(base), vm.Int(n))
//
// # Observability
//
// Setting Options.Observer streams structured events out of the
// allocator while it runs: one span per Figure 4 phase per pass
// (whose durations equal the PassStats record exactly), counters for
// graph sizes, coalescing, scan work and spill code, spill-decision
// events carrying the cost and metric value behind each choice, and
// color-reuse events witnessing each optimistic win over Chaitin's
// pessimism. Three sinks are provided: NewJSONSink (one JSON object
// per line), NewTextSink (log lines), and NewMetricsSink (in-process
// counters + duration histograms); MultiSink combines them.
//
//	ms := regalloc.NewMetricsSink()
//	opt := regalloc.DefaultOptions()
//	opt.Observer = ms
//	res, err := prog.Allocate("SVD", opt)
//	fmt.Print(ms.Snapshot())
//
// Options misuse fails loudly: Allocate, Assemble, and
// AssembleContext validate first and return errors matchable with
// errors.Is against ErrBadK, ErrBadHeuristic, ErrBadMetric,
// ErrConflictingSpillModes, and ErrBadWorkers.
//
// Subpackages under internal/ implement each stage; this package is
// the stable surface.
package regalloc

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"regalloc/internal/alloc"
	"regalloc/internal/asm"
	"regalloc/internal/color"
	"regalloc/internal/ir"
	"regalloc/internal/irgen"
	"regalloc/internal/irinterp"
	"regalloc/internal/machine"
	"regalloc/internal/obs"
	"regalloc/internal/opt"
	"regalloc/internal/parser"
	"regalloc/internal/portfolio"
	"regalloc/internal/sem"
	"regalloc/internal/ssa"
	"regalloc/internal/target"
	"regalloc/internal/vm"
)

// Heuristic selects the coloring algorithm. See package
// internal/color for the definitions.
type Heuristic = color.Heuristic

// The three heuristics the paper compares — Chaitin's pessimistic
// coloring ("Old" in the paper's tables), the optimistic coloring of
// Briggs et al. ("New"), and Matula–Beck smallest-last ordering (the
// cost-blind linear-time comparator of §2.2) — plus the SSA-form
// chordal allocator, which replaces the whole Figure 4 cycle with
// construction, pre-spilling, and dominance-order greedy coloring,
// and George–Appel iterated register coalescing (IRC), which fuses
// the coalesce pre-pass into simplification so conservative merges
// retry as the graph shrinks.
const (
	Chaitin    = color.Chaitin
	Briggs     = color.Briggs
	MatulaBeck = color.MatulaBeck
	SSA        = color.SSA
	IRC        = color.IRC
)

// MachineModel describes a register file beyond its plain per-class
// counts (machine.Model re-exported): the caller/callee-saved
// partition and the calling convention's argument and return register
// bindings. Set Options.Machine to allocate under those constraints;
// see MachineRTPC and MachineFor.
type MachineModel = machine.Model

// MachineRTPC returns the register-file model of the paper's RT/PC
// target: 16 general-purpose registers (r0–r7 caller-saved, r0–r3
// arguments, r0 return) and 8 floating-point registers (f0–f3
// caller-saved and arguments, f0 return).
func MachineRTPC() *MachineModel { return machine.RTPC() }

// MachineFor derives a register-file model from a simulated target:
// the low half of each class is caller-saved, the first min(4, half)
// registers carry arguments, and register 0 carries the return value.
func MachineFor(m Machine) *MachineModel { return machine.ForTarget(m) }

// Options configures the allocator; it is alloc.Options re-exported.
type Options = alloc.Options

// Result is a completed allocation; it is alloc.Result re-exported.
type Result = alloc.Result

// PassStats records one trip around the paper's Figure 4 cycle:
// per-phase durations plus the pass's graph size, coalesced moves,
// spills, inserted spill code, and scan work. Result.Passes holds
// one per pass. It is alloc.PassStats re-exported so callers never
// import internal/alloc.
type PassStats = alloc.PassStats

// Typed option errors, re-exported from internal/alloc. Validation
// failures wrap these; match with errors.Is.
var (
	ErrBadK                  = alloc.ErrBadK
	ErrBadHeuristic          = alloc.ErrBadHeuristic
	ErrBadMetric             = alloc.ErrBadMetric
	ErrConflictingSpillModes = alloc.ErrConflictingSpillModes
	ErrBadWorkers            = alloc.ErrBadWorkers
	ErrBadPColorAlgo         = alloc.ErrBadPColorAlgo
	ErrBadMachine            = alloc.ErrBadMachine
)

// ErrIrreducible (ssa.ErrIrreducible re-exported) reports register
// pressure no spilling can reduce: a single instruction reads more
// distinct values of one class than the machine has registers. The
// SSA allocator returns it as a typed error; the Figure 4 allocators
// hit the same wall as "a spill temporary must itself spill".
var ErrIrreducible = ssa.ErrIrreducible

// Observer is the allocator's event-sink interface (obs.Sink
// re-exported): anything with Emit(TraceEvent) can receive the live
// event stream via Options.Observer. Sinks used with Assemble or
// AssembleContext must be safe for concurrent use.
type Observer = obs.Sink

// TraceEvent is one structured observation (obs.Event re-exported):
// a phase span boundary, a counter, a spill decision, or a
// color-reuse witness.
type TraceEvent = obs.Event

// Metrics is a point-in-time aggregate from a MetricsSink.
type Metrics = obs.Metrics

// NewJSONSink returns an Observer writing one JSON object per event
// per line to w — the format cmd/regalloc -trace and cmd/bench
// -trace emit. Check Err after the run when w is a file: per-event
// write failures are remembered there rather than stopping the
// allocator mid-stream.
func NewJSONSink(w io.Writer) *obs.JSONSink { return obs.NewJSONSink(w) }

// NewTextSink returns an Observer writing one human-readable line
// per event to w.
func NewTextSink(w io.Writer) Observer { return obs.NewTextSink(w) }

// NewMetricsSink returns an aggregating Observer; call Snapshot for
// the accumulated counters and per-phase duration histograms.
func NewMetricsSink() *obs.MetricsSink { return obs.NewMetricsSink() }

// MultiSink fans events out to several observers; nil entries are
// dropped.
func MultiSink(sinks ...Observer) Observer { return obs.Multi(sinks...) }

// Registry accumulates per-run summaries across many Allocate and
// Assemble calls (obs.Registry re-exported); see NewRegistry and
// Summarize. Exporters live in internal/obs/promtext (Prometheus
// text) and are served by cmd/allocd's /metrics.
type Registry = obs.Registry

// RunSummary is one completed run's condensed record
// (obs.RunSummary re-exported); Summarize builds one from a Result.
type RunSummary = obs.RunSummary

// NewRegistry returns an empty, thread-safe run registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Summarize condenses a completed allocation into the record a
// Registry accumulates: spill totals (in the same fixed-point milli
// units as the spill.cost_milli trace counter, so registry totals
// reconcile exactly with summed PassStats), palette sizes actually
// used per register class, coalescing totals, and per-phase wall
// time summed across passes.
func Summarize(unit string, res *Result) RunSummary {
	s := RunSummary{Unit: unit, Passes: len(res.Passes)}
	if len(res.Passes) > 0 {
		s.LiveRanges = res.Passes[0].LiveRanges
		s.Edges = res.Passes[0].Edges
	}
	var cost float64
	for _, p := range res.Passes {
		s.Spills += p.Spilled
		cost += p.SpillCost
		s.CoalescedMoves += p.CoalescedMoves
		s.PhaseNS[obs.PhaseBuild] += p.Build.Nanoseconds()
		s.PhaseNS[obs.PhaseSimplify] += p.Simplify.Nanoseconds()
		s.PhaseNS[obs.PhaseColor] += p.Color.Nanoseconds()
		s.PhaseNS[obs.PhaseSpill] += p.Spill.Nanoseconds()
	}
	s.SpillCostMilli = obs.SpillCostMilli(cost)
	s.TotalNS = res.TotalTime().Nanoseconds()
	if res.Func != nil {
		var maxColor int16 = -1
		for _, c := range res.Colors {
			if c > maxColor {
				maxColor = c
			}
		}
		seen := make([]bool, 2*(int(maxColor)+1)) // [class][color]
		for r, c := range res.Colors {
			if c < 0 {
				continue
			}
			cls := 0
			if res.Func.RegClass(ir.Reg(r)) == ir.ClassFloat {
				cls = 1
			}
			if i := cls*(int(maxColor)+1) + int(c); !seen[i] {
				seen[i] = true
				if cls == 1 {
					s.PaletteFloat++
				} else {
					s.PaletteInt++
				}
			}
		}
	}
	return s
}

// PortfolioCandidate is one strategy in a portfolio race
// (portfolio.Candidate re-exported): a label plus the full Options
// variant it runs under.
type PortfolioCandidate = portfolio.Candidate

// PortfolioConfig tunes a race (portfolio.Config re-exported): mode,
// concurrency bound, wall-clock budget, observer.
type PortfolioConfig = portfolio.Config

// PortfolioResult is a completed race (portfolio.Result re-exported):
// the winning allocation plus every candidate's outcome.
type PortfolioResult = portfolio.Result

// PortfolioMode selects the race's stopping rule.
type PortfolioMode = portfolio.Mode

// The two racing modes: run every candidate the budget admits
// (deterministic winner), or cancel stragglers once a verified
// zero-spill result lands (lower latency).
const (
	RaceToBest = portfolio.RaceToBest
	FirstGood  = portfolio.FirstGood
)

// DefaultPortfolio returns the standard candidate set derived from
// base: Chaitin and Briggs under cost/degree, the cost-only and
// degree-only spill metrics, smallest-last ordering, the speculative
// pcolor engine once per seed (portfolio.DefaultSeeds when none are
// given), and one Jones–Plassmann entrant on the first seed.
func DefaultPortfolio(base Options, pcolorSeeds ...uint64) []PortfolioCandidate {
	if len(pcolorSeeds) == 0 {
		pcolorSeeds = portfolio.DefaultSeeds
	}
	return portfolio.Default(base, pcolorSeeds...)
}

// AllocatePortfolio races the candidate strategies for one unit and
// returns the cheapest verified allocation with the full race report:
// per-candidate status, spill cost, and latency, the winner index,
// and the win margin. The winner is selected by (milli spill cost,
// spill count, candidate index), so it is reproducible regardless of
// goroutine finish order; see internal/portfolio for the budget and
// cancellation semantics.
func (p *Program) AllocatePortfolio(ctx context.Context, name string, cands []PortfolioCandidate, cfg PortfolioConfig) (*PortfolioResult, error) {
	f := p.IR.Func(name)
	if f == nil {
		return nil, fmt.Errorf("regalloc: no unit %s", name)
	}
	return portfolio.Race(ctx, f, cands, cfg)
}

// AssemblePortfolio races the candidates for every unit of the
// program and lowers each winner to machine code for m. As with
// AssembleContext, the machine is authoritative for register budgets:
// every candidate's KInt and KFloat are overridden with m.NumGPR and
// m.NumFPR. Units race sequentially (each race parallelizes
// internally under cfg.Workers); cancelling ctx stops the sequence
// with the context's error.
func (p *Program) AssemblePortfolio(ctx context.Context, m Machine, cands []PortfolioCandidate, cfg PortfolioConfig) (*asm.Program, map[string]*PortfolioResult, error) {
	fitted := make([]PortfolioCandidate, len(cands))
	for i, c := range cands {
		c.Opt.KInt = m.NumGPR
		c.Opt.KFloat = m.NumFPR
		fitted[i] = c
	}
	code := asm.NewProgram()
	results := make(map[string]*PortfolioResult, len(p.IR.Funcs))
	for _, f := range p.IR.Funcs {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("regalloc: %s: %w", f.Name, err)
		}
		pr, err := portfolio.Race(ctx, f, fitted, cfg)
		if err != nil {
			return nil, nil, err
		}
		af, err := asm.Lower(pr.Res.Func, pr.Res.Colors, m)
		if err != nil {
			return nil, nil, err
		}
		code.Add(af)
		results[f.Name] = pr
	}
	return code, results, nil
}

// SummarizePortfolio condenses a completed race into the record a
// Registry accumulates: the winner's allocation summary (exactly what
// Summarize builds) plus the race's candidate counts, winner
// strategy, and win margin.
func SummarizePortfolio(unit string, pr *PortfolioResult) RunSummary {
	s := Summarize(unit, pr.Res)
	started, finished, cancelled, _ := pr.Counts()
	s.PortfolioCandidates = len(pr.Outcomes)
	s.PortfolioStarted = started
	s.PortfolioFinished = finished
	s.PortfolioCancelled = cancelled
	s.PortfolioWinner = pr.Outcomes[pr.Winner].Name
	s.PortfolioMarginMilli = pr.WinMarginMilli
	s.PortfolioEntrants = make([]string, len(pr.Outcomes))
	for i, o := range pr.Outcomes {
		s.PortfolioEntrants[i] = o.Name
	}
	return s
}

// Machine describes the simulated target.
type Machine = target.Machine

// RTPC returns the paper's machine: 16 GPRs + 8 FPRs.
func RTPC() Machine { return target.RTPC() }

// DefaultOptions returns the paper's default configuration
// (optimistic heuristic, 16/8 registers, cost/degree spill metric).
func DefaultOptions() Options { return alloc.DefaultOptions() }

// Program is a compiled mini-FORTRAN program, ready for allocation.
type Program struct {
	IR *ir.Program
}

// Compile parses, checks, lowers, and optimizes source. The
// machine-independent optimizer (local CSE, loop-invariant code
// motion, dead-code elimination) runs by default because the paper's compiler was an
// optimizing compiler and the optimizer's long-lived temporaries are
// what creates the live-range structure the paper studies; use
// CompileNoOpt for the unoptimized ablation.
func Compile(source string) (*Program, error) {
	return compile(source, true)
}

// CompileNoOpt compiles without the machine-independent optimizer.
func CompileNoOpt(source string) (*Program, error) {
	return compile(source, false)
}

func compile(source string, optimize bool) (*Program, error) {
	astProg, err := parser.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	info, err := sem.Check(astProg)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	irProg, err := irgen.Gen(astProg, info, irgen.DefaultStaticStart)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	if optimize {
		for _, f := range irProg.Funcs {
			opt.Run(f)
			if err := ir.Validate(f); err != nil {
				return nil, fmt.Errorf("optimize: %w", err)
			}
		}
	}
	return &Program{IR: irProg}, nil
}

// Functions lists the program's unit names in source order.
func (p *Program) Functions() []string {
	names := make([]string, len(p.IR.Funcs))
	for i, f := range p.IR.Funcs {
		names[i] = f.Name
	}
	return names
}

// Func returns the IR of one unit, or nil.
func (p *Program) Func(name string) *ir.Func { return p.IR.Func(name) }

// Allocate runs register allocation for one unit. Options are
// validated first; misuse returns one of the typed errors (ErrBadK,
// ErrConflictingSpillModes, ...).
func (p *Program) Allocate(name string, opt Options) (*Result, error) {
	return p.AllocateContext(context.Background(), name, opt)
}

// AllocateContext is Allocate with cancellation and request-trace
// propagation: ctx is checked at every pass boundary and before every
// coalescing round, and a reqtrace scope carried by ctx receives the
// run's per-phase spans.
func (p *Program) AllocateContext(ctx context.Context, name string, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	f := p.IR.Func(name)
	if f == nil {
		return nil, fmt.Errorf("regalloc: no unit %s", name)
	}
	return alloc.RunContext(ctx, f, opt)
}

// AssembleContext allocates every unit with opt and lowers the
// result to machine code for m. Units are independent, so they are
// allocated on a worker pool bounded by opt.Workers (0 means
// GOMAXPROCS); the output is deterministic regardless (unit order
// and every per-unit result are position-fixed). It returns the code
// and the per-unit allocation results.
//
// The machine is authoritative for register budgets: opt.KInt and
// opt.KFloat are set to m.NumGPR and m.NumFPR, because the lowered
// code addresses m's physical register files and a larger budget
// could not be encoded. To color for a budget decoupled from any
// machine, use Allocate. The remaining options are validated before
// any work starts; misuse returns a typed error.
//
// Cancelling ctx stops the run: units not yet started are skipped,
// units in flight stop at their next pass boundary or coalescing round
// (alloc.RunContext checks the context between Figure 4 passes and
// between the coalescing rounds inside a pass), and the context's
// error is returned.
func (p *Program) AssembleContext(ctx context.Context, m Machine, opt Options) (*asm.Program, map[string]*Result, error) {
	opt.KInt = m.NumGPR
	opt.KFloat = m.NumFPR
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	slots, err := p.allocUnits(ctx, opt, func(res *Result) (*asm.Func, error) {
		return asm.Lower(res.Func, res.Colors, m)
	})
	if err != nil {
		return nil, nil, err
	}
	code := asm.NewProgram()
	results := make(map[string]*Result, len(p.IR.Funcs))
	for i, f := range p.IR.Funcs {
		code.Add(slots[i].af)
		results[f.Name] = slots[i].res
	}
	return code, results, nil
}

// AllocateAllContext allocates every unit of the program with opt on
// the same bounded worker pool AssembleContext uses, without lowering
// to machine code — so the register budget comes from opt (KInt and
// KFloat as given) rather than from a machine. Options are validated
// first; cancelling ctx skips units not yet started and returns the
// context's error. The result maps unit names to their allocations.
func (p *Program) AllocateAllContext(ctx context.Context, opt Options) (map[string]*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	slots, err := p.allocUnits(ctx, opt, nil)
	if err != nil {
		return nil, err
	}
	results := make(map[string]*Result, len(p.IR.Funcs))
	for i, f := range p.IR.Funcs {
		results[f.Name] = slots[i].res
	}
	return results, nil
}

// allocSlot is one unit's outcome from the shared worker pool.
type allocSlot struct {
	af  *asm.Func
	res *Result
	err error
}

// allocUnits is the worker-pool core shared by AssembleContext and
// AllocateAllContext: allocate every unit with opt on a pool bounded
// by opt.Workers (0 means GOMAXPROCS), optionally post-processing
// each result with lower (nil to skip). The output is deterministic
// regardless of scheduling: unit order and every per-unit result are
// position-fixed. The first error (or the context's) wins.
func (p *Program) allocUnits(ctx context.Context, opt Options, lower func(*Result) (*asm.Func, error)) ([]allocSlot, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	slots := make([]allocSlot, len(p.IR.Funcs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, f := range p.IR.Funcs {
		// Check cancellation before racing it against a free worker
		// slot: a done context always wins.
		if ctx.Err() != nil {
			slots[i].err = fmt.Errorf("regalloc: %s: %w", f.Name, ctx.Err())
			continue
		}
		select {
		case <-ctx.Done():
			slots[i].err = fmt.Errorf("regalloc: %s: %w", f.Name, ctx.Err())
			continue
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(i int, f *ir.Func) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := alloc.RunContext(ctx, f, opt)
			if err != nil {
				slots[i].err = fmt.Errorf("regalloc: %s: %w", f.Name, err)
				return
			}
			var af *asm.Func
			if lower != nil {
				af, err = lower(res)
				if err != nil {
					slots[i].err = err
					return
				}
			}
			slots[i] = allocSlot{af: af, res: res}
		}(i, f)
	}
	wg.Wait()
	for i := range slots {
		if slots[i].err != nil {
			return nil, slots[i].err
		}
	}
	return slots, nil
}

// Assemble is AssembleContext with a background context: allocate
// and lower every unit for m. As documented there, m's register-file
// sizes override opt.KInt and opt.KFloat.
func (p *Program) Assemble(m Machine, opt Options) (*asm.Program, map[string]*Result, error) {
	return p.AssembleContext(context.Background(), m, opt)
}

// MemWords suggests a simulator memory size: enough for the static
// data plus generous headroom for driver-managed arrays below the
// static area.
func (p *Program) MemWords() int {
	n := p.IR.StaticEnd + (1 << 16)
	if n < (1 << 22) {
		n = 1 << 22
	}
	return int(n)
}

// NewVM returns a simulator over assembled code.
func NewVM(code *asm.Program, memWords int) *vm.VM { return vm.New(code, memWords) }

// NewInterp returns the reference IR interpreter for the program.
func (p *Program) NewInterp(memWords int) *irinterp.Interp {
	return irinterp.New(p.IR, memWords)
}
