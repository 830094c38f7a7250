// Package alloc drives register allocation: the paper's Figure 4
// cycle of renumber/build/coalesce (the "build" box), simplify,
// color, and spill, repeated until a pass completes with no new
// spills. Each pass's phase CPU times and spill counts are recorded,
// which is exactly the data behind the paper's Figure 7. Runs over one
// function that would build pass 0 identically can share that Build
// (Starts), as a portfolio race's candidates do.
package alloc

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"regalloc/internal/coalesce"
	"regalloc/internal/color"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
	"regalloc/internal/pcolor"
	"regalloc/internal/reqtrace"
	"regalloc/internal/spill"
)

// PassStats records one trip around the Figure 4 cycle.
type PassStats struct {
	Build    time.Duration // renumber + graph build + coalesce + costs
	Simplify time.Duration
	Color    time.Duration // zero when Chaitin skips straight to spilling
	Spill    time.Duration // zero on the final (successful) pass

	LiveRanges     int // nodes in this pass's interference graph
	Edges          int
	CoalescedMoves int
	Spilled        int     // live ranges spilled by this pass
	SpillCost      float64 // summed estimated cost of those ranges
	LoadsInserted  int
	StoresInserted int
	Remats         int // reloads replaced by constant recomputation
	SplitLoads     int // preheader reloads shared by whole loops
	ScanSteps      int // bucket-scan work in simplify
}

// Result is a successful allocation.
type Result struct {
	// Func is the allocated function: spill code inserted, registers
	// renumbered to final live ranges.
	Func *ir.Func
	// Colors assigns each register of Func a color in [0, k) of its
	// class; every register is colored.
	Colors []int16
	// Passes holds per-pass statistics, in order.
	Passes []PassStats
	// Options echoes the configuration used.
	Options Options
}

// TotalSpilled sums live ranges spilled across all passes.
func (r *Result) TotalSpilled() int {
	n := 0
	for _, p := range r.Passes {
		n += p.Spilled
	}
	return n
}

// FirstPassSpilled is the number of ranges spilled by the first
// pass — the figure the paper's tables report as "registers spilled".
func (r *Result) FirstPassSpilled() int {
	if len(r.Passes) == 0 {
		return 0
	}
	return r.Passes[0].Spilled
}

// FirstPassSpillCost is the estimated cost of the first pass's
// spills (the paper's "spill cost" column).
func (r *Result) FirstPassSpillCost() float64 {
	if len(r.Passes) == 0 {
		return 0
	}
	return r.Passes[0].SpillCost
}

// TotalSpillCost sums estimated spill costs across passes.
func (r *Result) TotalSpillCost() float64 {
	c := 0.0
	for _, p := range r.Passes {
		c += p.SpillCost
	}
	return c
}

// LiveRanges is the size of the first interference graph (the
// paper's "live ranges" column).
func (r *Result) LiveRanges() int {
	if len(r.Passes) == 0 {
		return 0
	}
	return r.Passes[0].LiveRanges
}

// TotalTime sums all phase times over all passes.
func (r *Result) TotalTime() time.Duration {
	var t time.Duration
	for _, p := range r.Passes {
		t += p.Build + p.Simplify + p.Color + p.Spill
	}
	return t
}

// Run allocates registers for f (on a private clone) and returns the
// result. Options are validated first (see Options.Validate); Run
// then fails if the iteration exceeds MaxPasses or if the machine
// has too few registers to hold a single instruction's operands (a
// spill temporary would itself need spilling). When opt.Observer is
// set, every phase additionally emits structured events (package
// obs) as it runs.
func Run(f *ir.Func, opt Options) (*Result, error) {
	return RunContext(context.Background(), f, opt)
}

// colorScratchPool recycles the per-Run coloring scratch (worklists,
// simplify stacks, color/used buffers) across allocations, so a warm
// service process doing allocation after allocation stops paying the
// scratch allocations entirely.
var colorScratchPool = sync.Pool{New: func() any { return new(color.Scratch) }}

// RunContext is Run with cancellation: the context is checked at
// every pass boundary (the natural preemption point of the Figure 4
// cycle) and before every round of the coalescing pre-pass, which can
// run hundreds of rounds in one pass; the other phases run to
// completion. So a cancelled service request or an expired portfolio
// budget stops an allocation between passes or coalescing rounds
// instead of running it to the end. The error wraps ctx.Err(),
// matchable with errors.Is.
//
// When ctx carries a request trace, the run is one "alloc:UNIT" span,
// opened as the run starts, whichever allocator family runs it. Each
// build, simplify, color and spill phase becomes a "phase:NAME" child
// as it ends (reqtrace.PhaseSpans), from the same clock readings that
// time PassStats. The span closes with a "passes" attribute, or with
// "error" when the run fails.
func RunContext(ctx context.Context, f *ir.Func, opt Options) (*Result, error) {
	return runContext(ctx, f, opt, nil)
}

// runContext is RunContext with the memo that shares pass 0's Build
// among the runs s was made for; nil shares nothing.
func runContext(ctx context.Context, f *ir.Func, opt Options, s *Starts) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.MaxPasses <= 0 {
		opt.MaxPasses = 64
	}
	rt, parent := reqtrace.FromContext(ctx)
	if rt == nil {
		return run(ctx, f, opt, obs.New(opt.Observer, f.Name), s)
	}
	label := opt.Heuristic.String()
	if opt.UsePColor {
		// The speculative engine shadows Heuristic, as it does below.
		label = "pcolor"
	}
	span, end := rt.StartSpan(parent, "alloc:"+f.Name, reqtrace.Attr{Key: "heuristic", Value: label})
	res, err := run(ctx, f, opt, obs.New(obs.Multi(opt.Observer, rt.PhaseSpans(span)), f.Name), s)
	if err != nil {
		end(reqtrace.Attr{Key: "error", Value: err.Error()})
		return nil, err
	}
	end(reqtrace.Attr{Key: "passes", Value: strconv.Itoa(len(res.Passes))})
	return res, nil
}

// run allocates f under a validated opt with MaxPasses resolved,
// emitting events on tr (nil when nothing observes the run). It
// dispatches the SSA and IRC heuristics to their drivers and runs the
// Figure 4 cycle for the rest, with pass 0's Build shared through s.
func run(ctx context.Context, f *ir.Func, opt Options, tr *obs.Tracer, s *Starts) (*Result, error) {
	if opt.runsSSA() {
		return runSSA(ctx, f, opt, tr)
	}
	if opt.runsIRC() {
		return runIRC(ctx, f, opt, tr, s)
	}
	res, _, err := cycle(ctx, f, opt, tr, s)
	return res, err
}

// runsSSA reports whether opt runs the SSA allocator, which replaces
// the whole Figure 4 cycle, not just the simplify order. (UsePColor
// ignores Heuristic, so the speculative engine keeps precedence, as it
// does for the other heuristics.)
func (o Options) runsSSA() bool { return o.Heuristic == color.SSA && !o.UsePColor }

// runsIRC reports whether opt runs iterated register coalescing, which
// replaces the cycle's separate coalesce pre-pass and simplify phase
// with one worklist machine after a Figure 4 baseline (same UsePColor
// precedence as runsSSA).
func (o Options) runsIRC() bool { return o.Heuristic == color.IRC && !o.UsePColor }

// built is what a pass's Build leaves the rest of the pass: the
// analysis of the renumbered, coalesced function, its interference
// graph, with the machine model's nodes when the run has one, its
// spill costs and, under Rematerialize, its constant-valued ranges.
// Nothing after the Build changes them, so the final pass's is also
// what irc's worklist round starts from instead of analyzing the
// function again.
type built struct {
	pc        *passCtx
	g         *ig.Graph
	mg        *ig.MachineGraph // nil without a machine model
	costs     []float64
	rematOK   []bool // nil unless Rematerialize
	rematVals []spill.RematValue
	moves     int // copies the coalescer merged
}

// build runs a pass's Build on work: renumber into webs, from a fresh
// analysis (liveness + CFG) when pc is nil or the one the last spill
// carried, coalesce copies, rebuild the graph, compute spill costs
// from the stamped loop depths. An error is the coalescer's
// cancellation.
func build(ctx context.Context, work *ir.Func, pc *passCtx, opt Options, tr *obs.Tracer) (*built, error) {
	if pc == nil {
		pc = newPassCtx(work)
	} else {
		pc.carry(work)
	}
	b := &built{pc: pc}
	if opt.Coalesce && (pc.mayMerge || opt.ConservativeCoalesce) {
		var ck func(ir.Class) int
		if opt.ConservativeCoalesce {
			ck = opt.K()
		}
		tc := tr.Begin(obs.PhaseCoalesce)
		cs, cg, err := coalesce.RunContext(ctx, work, pc.lv, ck, tr)
		tr.End(obs.PhaseCoalesce, tc)
		if err != nil {
			return nil, err
		}
		b.moves = cs.Moves
		b.g = cg // non-nil only when a conservative run merged nothing
		pc.mayMerge = false
		if cs.Moves > 0 {
			// Coalescing rewrote the code and left pc.lv its
			// liveness: renumber the merged webs with it and build
			// below. The CFG analysis stays valid — no block was
			// touched.
			pc.renumber(work)
		}
	} else if opt.Coalesce {
		// An aggressive round here would merge nothing: the last
		// round ran to its fixpoint, where every candidate's ends
		// interfered; no renumbering since has split a register; and
		// spill code changes only the spilled webs, whose
		// replacements are never coalescible.
		coalesce.Skipped(work, pc.lv)
	}
	if opt.Machine != nil {
		// The machine model extends the graph with precolored register
		// nodes and call-clobber edges; the plain graph a conservative
		// run returns lacks those, so rebuild.
		b.mg = ig.BuildWithMachine(work, pc.lv, opt.Machine, tr)
		b.g = b.mg.Graph
	} else if b.g == nil {
		b.g = ig.BuildWithLiveness(work, pc.lv, 0, tr)
	}
	if opt.Rematerialize {
		b.rematOK, b.rematVals = spill.Remat(work)
	}
	b.costs = spill.CostsRemat(work, opt.CostParams, b.rematOK)
	return b, nil
}

// cycle runs the Figure 4 cycle on a clone of f, or on a fork of the
// pass 0 Build it shares through s. On success it also returns what
// the final pass's Build left; runIRC calls it for its Figure 4
// baseline, so that baseline is not recorded as a second allocation.
func cycle(ctx context.Context, f *ir.Func, opt Options, tr *obs.Tracer, s *Starts) (*Result, *built, error) {
	res := &Result{Options: opt}
	kf := opt.K()

	// One coloring scratch serves every pass of the cycle (and, via
	// the pool, every later Run on this goroutine's path): worklists,
	// stacks, and color buffers are reused, so a steady-state coloring
	// pass allocates nothing. Slices returned by the Into entry points
	// alias the scratch and are only held within the pass that
	// produced them; the final coloring is copied out before release.
	sc := colorScratchPool.Get().(*color.Scratch)
	defer colorScratchPool.Put(sc)

	// work is the function the passes allocate: pass 0's Build makes
	// it. pc is the analysis the next pass starts from: nil after a
	// split, whose preheaders are new blocks, so that pass starts
	// fresh.
	var work *ir.Func
	var pc *passCtx
	for pass := 0; pass < opt.MaxPasses; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("alloc: %s: cancelled before pass %d: %w", f.Name, pass, err)
		}
		var ps PassStats
		tr.SetPass(pass)

		t0 := tr.Begin(obs.PhaseBuild)
		var b *built
		var err error
		if pass == 0 {
			work, b, err = s.first(ctx, f, opt, tr)
		} else {
			b, err = build(ctx, work, pc, opt, tr)
		}
		if err != nil {
			tr.End(obs.PhaseBuild, t0)
			return nil, nil, fmt.Errorf("alloc: %s: pass %d: %w", f.Name, pass, err)
		}
		pc = b.pc
		g, costs := b.g, b.costs
		ps.CoalescedMoves = b.moves
		ps.Build = tr.End(obs.PhaseBuild, t0)
		ps.LiveRanges = work.NumRegs()
		ps.Edges = g.NumEdges()
		pc.emitCounters(tr)
		if tr.Enabled() {
			tr.Counter(obs.PhaseBuild, "graph.nodes", int64(ps.LiveRanges))
			tr.Counter(obs.PhaseBuild, "graph.edges", int64(ps.Edges))
			tr.Counter(obs.PhaseBuild, "coalesce.moves", int64(ps.CoalescedMoves))
		}

		out := colorStep(sc, work, b, kf, opt, tr)
		ps.Simplify, ps.Color, ps.ScanSteps = out.Simplify, out.Select, out.ScanSteps
		if len(out.Spilled) == 0 {
			res.Passes = append(res.Passes, ps)
			if err := color.Verify(g, out.Colors, kf); err != nil {
				return nil, nil, fmt.Errorf("alloc: %s: %w", f.Name, err)
			}
			res.Func = work
			// out.Colors may alias the pooled scratch; the result
			// outlives the pass, so copy it out (precolored node
			// colors stay behind — the program only ever names
			// virtual registers).
			res.Colors = append([]int16(nil), out.Colors[:work.NumRegs()]...)
			if opt.Machine != nil {
				if err := VerifyAssignmentMachine(work, res.Colors, opt.Machine); err != nil {
					return nil, nil, fmt.Errorf("alloc: %s: %w", f.Name, err)
				}
			}
			return res, b, nil
		}

		// Spill.
		regs := make([]ir.Reg, len(out.Spilled))
		for i, n := range out.Spilled {
			if work.RegFlags(ir.Reg(n))&ir.FlagSpillTemp != 0 {
				return nil, nil, fmt.Errorf("alloc: %s: a spill temporary must itself spill; %d %s registers cannot hold one instruction",
					f.Name, kf(g.Class(n)), g.Class(n))
			}
			regs[i] = ir.Reg(n)
			ps.SpillCost += costs[n]
		}
		ps.Spilled = len(out.Spilled)
		t0 = tr.Begin(obs.PhaseSpill)
		var st spill.Stats
		if opt.Split {
			// pc.info is still the analysis of work: nothing since the
			// pass started has added or removed a block. (Recomputing
			// here was the second cfg.Analyze per split-mode pass.)
			st = spill.InsertCodeSplit(work, regs, pc.info)
			pc = nil
		} else {
			// Nil remat flags, without Rematerialize, give InsertCode.
			st = spill.InsertCodeRemat(work, regs, b.rematOK, b.rematVals)
			spill.CarryLiveness(pc.lv, regs)
		}
		ps.Spill = tr.End(obs.PhaseSpill, t0)
		ps.LoadsInserted = st.Loads
		ps.StoresInserted = st.Stores
		ps.Remats = st.Remats
		ps.SplitLoads = st.SplitLoads
		if tr.Enabled() {
			tr.Counter(obs.PhaseSpill, "spill.ranges", int64(ps.Spilled))
			// Fixed-point millicost: cost estimates are fractional
			// (cost/degree metrics, remat discounts), and a plain
			// int64 truncation made trace totals drift from
			// PassStats.SpillCost. value/1000 reconciles exactly to
			// the rounding.
			tr.Counter(obs.PhaseSpill, "spill.cost_milli", int64(math.Round(ps.SpillCost*1000)))
			st.Emit(tr)
		}
		res.Passes = append(res.Passes, ps)
	}
	return nil, nil, fmt.Errorf("alloc: %s: no convergence after %d passes", f.Name, opt.MaxPasses)
}

// colorStep is a pass's coloring step: the speculative engine's under
// UsePColor, otherwise color.Run's, around any precolored nodes.
func colorStep(sc *color.Scratch, work *ir.Func, b *built, kf color.K, opt Options, tr *obs.Tracer) color.Outcome {
	if opt.UsePColor {
		return pcolorStep(work, b.g, b.costs, kf, opt, tr)
	}
	var pre []int16
	if b.mg != nil {
		pre = b.mg.Pre
	}
	return color.Run(sc, b.g, pre, b.costs, kf, opt.Heuristic, opt.Metric, tr)
}

// pcolorStep is the coloring step under UsePColor, timed as one color
// span. The speculative engine (seeded; DefaultPColorWorkers fixes the
// rest) colors g with an unbounded first-fit palette, and every node
// colored at or beyond its class budget is cleared; the survivors keep
// their colors, since a subset of a proper coloring is proper. As
// select does for spill candidates, each cleared node then takes the
// lowest color its neighbors leave free, spill temporaries first: they
// cannot spill again, and created late, their node numbers would sort
// them last. A temporary that finds no color evicts its cheapest
// ordinary neighbor, Chaitin's rule in miniature, until one frees up;
// evicting real ranges is what makes the cost-blind engine converge.
// The evicted and the uncolored nodes are the spill set, where a
// temporary with only temporary neighbors fails the cycle as any
// temporary that must spill does.
func pcolorStep(work *ir.Func, g *ig.Graph, costs []float64, kf color.K, opt Options, tr *obs.Tracer) color.Outcome {
	t0 := tr.Begin(obs.PhaseColor)
	colors, _ := pcolor.Color(g, pcolor.Options{Workers: DefaultPColorWorkers, Seed: opt.PColorSeed, Algo: opt.PColorAlgo, Tracer: tr})
	isTemp := func(v int32) bool { return work.RegFlags(ir.Reg(v))&ir.FlagSpillTemp != 0 }
	var temps, rest []int32
	for v := int32(0); v < int32(len(colors)); v++ {
		if int(colors[v]) >= kf(g.Class(v)) {
			colors[v] = color.NoColor
			if isTemp(v) {
				temps = append(temps, v)
			} else {
				rest = append(rest, v)
			}
		}
	}
	var spilled []int32
	var used []bool
	for _, v := range append(temps, rest...) {
		kn := kf(g.Class(v))
		c, inUse := lowestFree(g, colors, v, kn, &used)
		for c == color.NoColor && isTemp(v) {
			w := int32(-1)
			for _, nb := range g.Neighbors(v) {
				if colors[nb] != color.NoColor && !isTemp(nb) &&
					(w < 0 || costs[nb] < costs[w] || (costs[nb] == costs[w] && nb < w)) {
					w = nb
				}
			}
			if w < 0 {
				break
			}
			tr.SpillDecision(w, int32(g.Degree(w)), costs[w], costs[w])
			colors[w] = color.NoColor
			spilled = append(spilled, w)
			c, _ = lowestFree(g, colors, v, kn, &used)
		}
		if c == color.NoColor {
			tr.SpillDecision(v, int32(g.Degree(v)), costs[v], float64(g.Degree(v)))
			spilled = append(spilled, v)
			continue
		}
		colors[v] = c
		tr.ColorReuse(v, int32(g.Degree(v)), inUse, c)
	}
	return color.Outcome{Colors: colors, Spilled: spilled, Select: tr.End(obs.PhaseColor, t0)}
}

// lowestFree returns the lowest color below kn that no neighbor of v
// holds, or NoColor, and how many colors below kn its neighbors hold.
// *used is its scratch.
func lowestFree(g *ig.Graph, colors []int16, v int32, kn int, used *[]bool) (int16, int) {
	if cap(*used) < kn {
		*used = make([]bool, kn)
	}
	u := (*used)[:kn]
	clear(u)
	for _, nb := range g.Neighbors(v) {
		if c := colors[nb]; c != color.NoColor && int(c) < kn {
			u[c] = true
		}
	}
	c, inUse := color.NoColor, 0
	for j, taken := range u {
		if taken {
			inUse++
		} else if c == color.NoColor {
			c = int16(j)
		}
	}
	return c, inUse
}
