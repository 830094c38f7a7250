package alloc

import (
	"context"
	"fmt"

	"regalloc/internal/color"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/irc"
	"regalloc/internal/obs"
)

// runIRC dispatches opt.Heuristic == color.IRC to the iterated
// register coalescing allocator (internal/irc), with spilling
// decoupled from coalescing — the same separation the SSA allocator
// already uses, and for the same reason. Interleaving aggressive
// coalescing with spill decisions lets merged webs inflate graph
// pressure before the spill chooser runs, which is exactly the
// pathology optimistic coalescing (Park & Moon) was invented to
// undo: an "iterate everything" driver measurably spills units the
// plain Figure 4 cycle colors cleanly. So the driver splits the work
// by objective:
//
//  1. Spill rounds run the unmodified Figure 4 cycle under Briggs
//     optimism with the conservative coalescing pre-pass
//     (ConservativeCoalesce) until a pass completes with no new
//     spills. Spill placement, and therefore total spill cost, is
//     identical to that configuration's by construction — not to the
//     default aggressively coalescing Briggs, which at (16,8)
//     spills less on seven of the 29 suite units (DQRDC, SVD,
//     GRADNT and QSORT among them) and more on three.
//  2. The worklist machine (simplify / coalesce / freeze
//     interleaved, George and Briggs tests, move-biased select) then
//     runs once on the final colorable program. Conservative tests
//     guarantee its merges preserve colorability, so this round can
//     only delete copies, never add spills; in the rare case the
//     baseline's zero-spill coloring depended on optimism the round
//     cannot reproduce, the driver falls back to the phase 1
//     coloring unchanged.
//
// Each phase 1 pass lands in Result.Passes as usual; the worklist
// round is appended as one more pass, its machine charged to the
// simplify phase and its rewrite + select to the color phase. The
// round starts from the analysis the baseline's final pass colored
// from (liveness, graph and costs), as a pass after a plain or remat
// spill starts from the last pass's: the final pass renumbered the
// function and nothing has changed it since, so a fresh start would
// renumber it to itself and build the same graph and costs again. The
// baseline's pass 0 Build is shared through s like any other Figure 4
// run's.
func runIRC(ctx context.Context, f *ir.Func, opt Options, tr *obs.Tracer, s *Starts) (*Result, error) {
	res, last, err := cycle(ctx, f, ircBaseline(opt), tr, s)
	if err != nil {
		return nil, err
	}
	res.Options = opt
	work := res.Func
	kf := opt.K()
	tr.SetPass(len(res.Passes))

	// Phase 2: one worklist-machine round over the colorable program.
	var ps PassStats
	t0 := tr.Begin(obs.PhaseBuild)
	pc := last.pc
	pc.livenessRuns, pc.cfgRuns = 0, 0
	if carryObserver != nil {
		carryObserver(work.Clone(), work, pc.lv, pc.info)
	}
	mg := last.mg
	if mg == nil {
		mg = ig.WrapPlain(last.g)
	}
	if ircStartObserver != nil {
		ircStartObserver(work, mg, last.costs)
	}
	ps.Build = tr.End(obs.PhaseBuild, t0)
	ps.LiveRanges = work.NumRegs()
	ps.Edges = mg.NumEdges()
	pc.emitCounters(tr)
	if tr.Enabled() {
		tr.Counter(obs.PhaseBuild, "graph.nodes", int64(mg.NumNodes()))
		tr.Counter(obs.PhaseBuild, "graph.edges", int64(ps.Edges))
	}

	t0 = tr.Begin(obs.PhaseSimplify)
	// Terminal round: spill-temp moves are fair game — no further
	// spill round can be forced to spill a widened temporary web.
	rr, err := irc.Color(ctx, work, mg, last.costs, kf, opt.Metric, tr)
	ps.Simplify = tr.End(obs.PhaseSimplify, t0)
	if err != nil {
		return nil, fmt.Errorf("alloc: %s: pass %d: %w", f.Name, len(res.Passes), err)
	}

	if len(rr.Spilled) > 0 {
		// The baseline coloring leaned on optimism this round's
		// conservative merges broke. Keep the baseline result: cost
		// and copies exactly as Briggs left them.
		return res, nil
	}

	t0 = tr.Begin(obs.PhaseColor)
	ps.CoalescedMoves = rr.ApplyRewrite(work)
	colors := append([]int16(nil), rr.Colors[:work.NumRegs()]...)
	ps.Color = tr.End(obs.PhaseColor, t0)
	res.Passes = append(res.Passes, ps)
	if opt.Machine != nil {
		if err := VerifyAssignmentMachine(work, colors, opt.Machine); err != nil {
			return nil, fmt.Errorf("alloc: %s: irc: %w", f.Name, err)
		}
	} else if err := VerifyAssignment(work, colors); err != nil {
		return nil, fmt.Errorf("alloc: %s: irc: %w", f.Name, err)
	}
	res.Func = work
	res.Colors = colors
	return res, nil
}

// ircBaseline returns the options irc's phase 1 runs the Figure 4
// cycle under: Briggs optimism with the conservative coalescing
// pre-pass. Everything else about the request (machine model, spill
// lowering flavor, costs, metric, observer) carries over unchanged.
func ircBaseline(opt Options) Options {
	opt.Heuristic = color.Briggs
	opt.Coalesce = true
	opt.ConservativeCoalesce = true
	return opt
}
