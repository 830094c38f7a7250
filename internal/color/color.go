// Package color implements the three coloring heuristics the paper
// compares:
//
//   - Chaitin's pessimistic heuristic (§2.1): simplify removes
//     trivially-colorable nodes; when stuck it marks the node with
//     the smallest cost/degree ratio as spilled and discards it.
//     If anything was marked, coloring is skipped and spill code is
//     inserted immediately.
//   - The Briggs et al. optimistic heuristic (§2.2–2.3): identical
//     simplification order — including Chaitin's cost/degree choice
//     when stuck — but spill candidates are pushed on the stack like
//     every other node. The select phase colors optimistically and
//     only the nodes that actually receive no color are spilled.
//   - Matula–Beck smallest-last (§2.2): remove a minimum-degree node
//     at every step, cost-blind, with optimistic selection. Included
//     as the linear-time comparator discussed in §3.3.
//
// All three share the degree-bucket worklist (ig.Worklist), so the
// simplification order is identical wherever the heuristics agree,
// and ties are broken identically (lowest live-range number, the
// paper's footnote 4). Run is a heuristic's whole coloring step, and
// the one place that decides whether select runs.
package color

import (
	"fmt"
	"math"
	"sync"
	"time"

	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
)

// Heuristic selects a coloring algorithm.
type Heuristic int

// Heuristics.
const (
	Chaitin Heuristic = iota
	Briggs
	MatulaBeck
	// SSA selects the SSA-form chordal allocator instead of a
	// simplify order: construction and pre-spilling live in
	// internal/ssa, dispatched by the alloc driver, which colors by
	// replaying dominance order through SelectInto.
	SSA
	// IRC selects George–Appel iterated register coalescing: the
	// Build/Simplify/Coalesce/Freeze/Spill/Select worklist machine in
	// internal/irc, dispatched by the alloc driver. Coalescing is
	// interleaved with simplification (conservatively, so it never
	// creates spills) instead of running as a pre-pass.
	IRC
)

var heuristicNames = [...]string{"chaitin", "briggs", "matula-beck", "ssa", "irc"}

func (h Heuristic) String() string {
	if int(h) < len(heuristicNames) {
		return heuristicNames[h]
	}
	return fmt.Sprintf("Heuristic(%d)", int(h))
}

// HeuristicSpellings enumerates every name ParseHeuristic accepts,
// grouped by heuristic with aliases slash-separated. Error messages
// and CLI/API docs render it, so the list of legal values has one
// source of truth.
const HeuristicSpellings = "chaitin/old, briggs/new/optimistic, matula-beck/mb/smallest-last, ssa/chordal, irc/iterated"

// ParseHeuristic resolves a heuristic by name; the accepted spellings
// are HeuristicSpellings. An unknown name yields an error that
// enumerates them.
func ParseHeuristic(s string) (Heuristic, error) {
	switch s {
	case "chaitin", "old":
		return Chaitin, nil
	case "briggs", "new", "optimistic":
		return Briggs, nil
	case "matula-beck", "mb", "smallest-last":
		return MatulaBeck, nil
	case "ssa", "chordal":
		return SSA, nil
	case "irc", "iterated":
		return IRC, nil
	}
	return 0, fmt.Errorf("unknown heuristic %q (accepted: %s)", s, HeuristicSpellings)
}

// Metric selects the spill-choice figure of merit when simplify is
// stuck. The paper uses cost/degree; the alternatives exist for the
// ablation study in EXPERIMENTS.md.
type Metric int

// Metrics.
const (
	CostOverDegree Metric = iota // Chaitin's choice (the default)
	CostOnly                     // spill the cheapest range outright
	DegreeOnly                   // spill the highest-degree range
)

// Value is the metric's figure for a node of the given spill cost and
// degree. A stuck simplify removes the node whose value is smallest,
// and so does irc's spill choice.
func (m Metric) Value(cost float64, degree int32) float64 {
	switch m {
	case CostOnly:
		return cost
	case DegreeOnly:
		return -float64(degree)
	default:
		return cost / float64(degree)
	}
}

// K maps a register class to the number of available colors.
type K func(ir.Class) int

// NumColors returns a K for the common two-class machine.
func NumColors(kInt, kFloat int) K {
	return func(c ir.Class) int {
		if c == ir.ClassInt {
			return kInt
		}
		return kFloat
	}
}

// SimplifyResult is the output of the simplification phase.
type SimplifyResult struct {
	// Stack is the removal order; select colors from the end.
	Stack []int32
	// SpillMarked lists nodes Chaitin's heuristic marked for
	// spilling (removed from the graph, not stacked). Empty for
	// Briggs and Matula–Beck.
	SpillMarked []int32
	// Candidates lists the nodes removed while stuck (degree >= k at
	// removal). For Chaitin it equals SpillMarked; for Briggs these
	// are the optimistically stacked potential spills.
	Candidates []int32
	// ScanSteps is the total bucket-scan work, for the linearity
	// check.
	ScanSteps int
}

// Scratch holds the reusable working state of one simplify+select
// round: the degree-bucket worklists, the removal stack, and the
// select-phase color buffers. Reusing one Scratch across the passes
// of the Figure 4 cycle (or across coloring runs on a fixed graph)
// makes the steady-state coloring pass allocation-free — the
// property TestColoringPassAllocs pins with testing.AllocsPerRun.
// A Scratch is not safe for concurrent use; the zero value is ready.
type Scratch struct {
	wl  ig.Worklist
	res SimplifyResult

	colors []int16
	used   []bool
	uncol  []int32
}

// scratchPool lends Run a Scratch when its caller threads none, so
// one-shot callers stop paying per-call worklist allocations once the
// pool is warm.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Outcome is one heuristic's coloring step over a graph. Run returns
// one, and so does the alloc driver's pcolor step.
type Outcome struct {
	// Colors is the assignment, NoColor on every uncolored node. It
	// is nil when Chaitin's simplify marked spills and select was
	// skipped.
	Colors []int16
	// Spilled is the spill set: the nodes Chaitin's simplify marked,
	// or the nodes select left uncolored. Nil when the graph colored.
	Spilled []int32
	// ScanSteps is simplify's bucket-scan work, for the linearity
	// check.
	ScanSteps int
	// Simplify and Select time the two phases. Select is zero when
	// select was skipped.
	Simplify, Select time.Duration
}

// Run is heuristic h's whole coloring step over g, and the one place
// that applies the rule the paper changes (§2.2): Chaitin spills what
// simplify marked and skips select, selecting (pessimistically) only
// when nothing was marked; Briggs and Matula–Beck always select
// optimistically and spill whatever stays uncolored.
//
// cost[n] is node n's estimated spill cost (ignored by MatulaBeck).
// pre, when non-nil, fixes the colors of precolored nodes (pre[n] >=
// 0): they never enter the worklist, so they are neither simplified
// nor spill candidates, and they keep their full degree pressure on
// every neighbor; select seeds them before replaying the stack, so
// Chaitin's guarantee still holds. cost may then cover only the
// uncolored prefix.
//
// Simplify and select are timed as one span each on tr, with the
// simplify.scan_steps counter between them. tr also carries a
// spill-decision event per stuck step, and a color-reuse event
// whenever a node removed while stuck receives a color after all —
// the witness of why optimistic coloring beats Chaitin. The returned
// slices alias sc and stay valid until its next use; a nil sc borrows
// a pooled Scratch and copies the result out.
func Run(sc *Scratch, g *ig.Graph, pre []int16, cost []float64, k K, h Heuristic, metric Metric, tr *obs.Tracer) Outcome {
	pooled := sc == nil
	if pooled {
		sc = scratchPool.Get().(*Scratch)
	}
	t0 := tr.Begin(obs.PhaseSimplify)
	sr := simplify(sc, g, pre, cost, k, h, metric, tr)
	out := Outcome{Simplify: tr.End(obs.PhaseSimplify, t0), ScanSteps: sr.ScanSteps}
	tr.Counter(obs.PhaseSimplify, "simplify.scan_steps", int64(sr.ScanSteps))
	if len(sr.SpillMarked) > 0 {
		out.Spilled = sr.SpillMarked
	} else {
		t0 = tr.Begin(obs.PhaseColor)
		out.Colors, out.Spilled = selectColors(sc, g, pre, sr, k, h != Chaitin, tr)
		out.Select = tr.End(obs.PhaseColor, t0)
	}
	if pooled {
		out.Colors = append([]int16(nil), out.Colors...)
		out.Spilled = append([]int32(nil), out.Spilled...)
		scratchPool.Put(sc)
	}
	return out
}

// SimplifyInto runs only the simplification phase of heuristic h
// over g, into sc: the result's slices alias sc and stay valid until
// its next use. Only perfbench's probe calls it, to time the two
// phases apart, and it goes with the probe (ROADMAP.md). Everything
// else colors through Run, or, for ssa, through SelectInto.
func SimplifyInto(sc *Scratch, g *ig.Graph, cost []float64, k K, h Heuristic, metric Metric, tr *obs.Tracer) *SimplifyResult {
	return simplify(sc, g, nil, cost, k, h, metric, tr)
}

// simplify is Run's first phase: it fills sc's result with the
// removal order, Chaitin's spill marks, the stuck-step candidates and
// the scan work. pre is Run's.
func simplify(sc *Scratch, g *ig.Graph, pre []int16, cost []float64, k K, h Heuristic, metric Metric, tr *obs.Tracer) *SimplifyResult {
	res := &sc.res
	res.Stack = res.Stack[:0]
	res.SpillMarked = res.SpillMarked[:0]
	res.Candidates = res.Candidates[:0]
	res.ScanSteps = 0
	// The integer and float subgraphs are disjoint; simplify each.
	for _, cls := range []ir.Class{ir.ClassInt, ir.ClassFloat} {
		simplifyClass(sc, g, pre, cost, k(cls), cls, h, metric, res, tr)
	}
	return res
}

func simplifyClass(sc *Scratch, g *ig.Graph, pre []int16, cost []float64, k int, cls ir.Class, h Heuristic, metric Metric, res *SimplifyResult, tr *obs.Tracer) {
	w := &sc.wl
	w.InitPre(g, cls, pre)
	for w.Remaining() > 0 {
		n := w.MinDegreeNode()
		if h == MatulaBeck || int(w.Degree(n)) < k {
			// Trivially colorable (or cost-blind smallest-last).
			w.Remove(n)
			res.Stack = append(res.Stack, n)
			continue
		}
		// Stuck: every remaining node has degree >= k. Fall back on
		// the spill-choice metric (paper §2.3).
		pick, val := chooseSpill(w, cost, metric)
		tr.SpillDecision(pick, w.Degree(pick), cost[pick], val)
		w.Remove(pick)
		res.Candidates = append(res.Candidates, pick)
		if h == Chaitin {
			res.SpillMarked = append(res.SpillMarked, pick)
		} else {
			res.Stack = append(res.Stack, pick)
		}
	}
	res.ScanSteps += w.ScanSteps
}

// chooseSpill picks the node to remove while stuck and returns it
// with its metric value. Ties are broken toward the lowest node
// number. The scan is a plain loop rather than ForEachRemaining: the
// closure that callback needs heap-escapes its captures on every
// stuck step, and this is the one piece of simplify that runs per
// spill decision on the zero-allocation pass path.
func chooseSpill(w *ig.Worklist, cost []float64, metric Metric) (int32, float64) {
	best := int32(-1)
	bestVal := math.Inf(1)
	for i, n := 0, w.NumNodes(); i < n; i++ {
		a := int32(i)
		if !w.InClass(a) || w.Removed(a) {
			continue
		}
		if v := metric.Value(cost[a], w.Degree(a)); best == -1 || v < bestVal {
			best = a
			bestVal = v
		}
	}
	return best, bestVal
}

// NoColor marks an uncolored (spilled) node in a color assignment.
const NoColor int16 = -1

// SelectInto runs only the coloring phase over sr's stack, into sc:
// nodes are reinserted in reverse removal order and given the lowest
// color unused by their already-colored neighbors. With
// optimistic=false (Chaitin after a simplify that marked nothing) a
// node that finds no color panics; with optimistic=true colorless
// nodes stay NoColor and are returned as uncolored. The slices alias
// sc. ssa's coloring calls it with its dominance order as the stack
// (optimistic, nil tracer): replayed in that order, the lowest free
// color is an optimal coloring of the chordal graph. perfbench's
// probe calls it to time select apart from simplify.
func SelectInto(sc *Scratch, g *ig.Graph, sr *SimplifyResult, k K, optimistic bool, tr *obs.Tracer) (colors []int16, uncolored []int32) {
	return selectColors(sc, g, nil, sr, k, optimistic, tr)
}

// selectColors is Run's second phase. pre is Run's: every precolored
// node is seeded with its fixed color, so the reinserted nodes color
// around the physical registers exactly as they color around each
// other. Only a node already reinserted or precolored has a color, so
// a neighbor's color alone says whether select has put it back.
func selectColors(sc *Scratch, g *ig.Graph, pre []int16, sr *SimplifyResult, k K, optimistic bool, tr *obs.Tracer) (colors []int16, uncolored []int32) {
	stack := sr.Stack
	var candidate []bool
	if tr.Enabled() && len(sr.Candidates) > 0 {
		candidate = make([]bool, g.NumNodes())
		for _, n := range sr.Candidates {
			candidate[n] = true
		}
	}
	colors = growInt16(sc.colors, g.NumNodes())
	sc.colors = colors
	for i := range colors {
		colors[i] = NoColor
	}
	for n, c := range pre {
		if c >= 0 {
			colors[n] = c
		}
	}
	used := sc.used
	sc.uncol = sc.uncol[:0]
	for i := len(stack) - 1; i >= 0; i-- {
		n := stack[i]
		kn := k(g.Class(n))
		if cap(used) < kn {
			used = make([]bool, kn)
		}
		used = used[:kn]
		for j := range used {
			used[j] = false
		}
		for _, nb := range g.Neighbors(n) {
			if c := colors[nb]; c != NoColor && int(c) < kn {
				used[c] = true
			}
		}
		c := int16(NoColor)
		inUse := 0
		if candidate == nil {
			for j := 0; j < kn; j++ {
				if !used[j] {
					c = int16(j)
					break
				}
			}
		} else {
			// Traced path: also count the distinct colors in use, the
			// quantity the color-reuse event reports.
			for j := 0; j < kn; j++ {
				if used[j] {
					inUse++
				} else if c == NoColor {
					c = int16(j)
				}
			}
		}
		if c == NoColor {
			if !optimistic {
				panic("color: pessimistic Select ran out of colors; simplify guaranteed this cannot happen")
			}
			sc.uncol = append(sc.uncol, n)
			continue
		}
		colors[n] = c
		if candidate != nil && candidate[n] {
			tr.ColorReuse(n, int32(g.Degree(n)), inUse, c)
		}
	}
	sc.used = used
	if len(sc.uncol) > 0 {
		uncolored = sc.uncol
	}
	return colors, uncolored
}

func growInt16(s []int16, n int) []int16 {
	if cap(s) < n {
		return make([]int16, n)
	}
	return s[:n]
}

// Verify checks that an assignment is a proper coloring: no two
// interfering nodes share a color and every color is within its
// class bound. Spilled (NoColor) nodes are ignored. It returns an
// error describing the first violation.
func Verify(g *ig.Graph, colors []int16, k K) error {
	for a := int32(0); a < int32(g.NumNodes()); a++ {
		if colors[a] == NoColor {
			continue
		}
		if int(colors[a]) >= k(g.Class(a)) {
			return fmt.Errorf("node %d has color %d, out of range for class %s (k=%d)",
				a, colors[a], g.Class(a), k(g.Class(a)))
		}
		for _, nb := range g.Neighbors(a) {
			if nb > a && colors[nb] == colors[a] {
				return fmt.Errorf("interfering nodes %d and %d share color %d", a, nb, colors[a])
			}
		}
	}
	return nil
}
