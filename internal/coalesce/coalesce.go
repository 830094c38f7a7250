// Package coalesce implements Chaitin-style aggressive copy
// coalescing: any register-to-register move whose source and
// destination do not interfere is eliminated by merging the two live
// ranges, and the build/coalesce step repeats until no move can be
// removed (the inner loop of the paper's Figure 4 "build" box).
//
// This is the pre-pass flavor of coalescing: each move is tested once
// (aggressively, or conservatively under Options.ConservativeCoalesce)
// against the full-pressure interference graph before any
// simplification happens. The complementary approach — retesting
// every move as simplification lowers its neighborhood's degrees —
// lives in internal/irc, the George–Appel iterated-register-coalescing
// worklist machine that the irc heuristic runs as a terminal round on
// top of this pre-pass.
package coalesce

import (
	"regalloc/internal/dataflow"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
)

// Stats summarizes one coalescing run for the caller's accounting.
type Stats struct {
	// Moves is the total number of copies eliminated.
	Moves int
	// Rounds is the number of build/coalesce rounds run (always at
	// least one; the last round merges nothing).
	Rounds int
	// LivenessRuns counts the liveness recomputations forced by
	// merging rounds: the round that reaches fixpoint reuses the
	// liveness it was handed, so a function with no coalescable
	// moves costs zero recomputations.
	LivenessRuns int
}

// Run coalesces moves in f until fixpoint, rewriting registers and
// deleting the eliminated copies. It returns the number of moves
// removed and the interference graph of the final program, which the
// caller may reuse.
//
// Moves involving a spill temporary are never coalesced: merging a
// reload temporary back into a long-lived range would undo the spill
// and could keep the allocator from converging.
func Run(f *ir.Func) (int, *ig.Graph) {
	st, g := RunWithLiveness(f, dataflow.ComputeLiveness(f), nil, 1, nil)
	return st.Moves, finalGraph(f, g, nil)
}

// RunTraced is Run with an observability tracer: each build/coalesce
// round emits counters for the moves examined and merged, which is
// finer-grained than the total Run returns (the fixpoint loop's
// convergence is visible round by round). A nil tracer makes it
// identical to Run.
func RunTraced(f *ir.Func, tr *obs.Tracer) (int, *ig.Graph) {
	st, g := RunWithLiveness(f, dataflow.ComputeLiveness(f), nil, 1, tr)
	return st.Moves, finalGraph(f, g, tr)
}

// RunConservativeTraced is RunConservative with an observability
// tracer; see RunTraced.
func RunConservativeTraced(f *ir.Func, k func(ir.Class) int, tr *obs.Tracer) (int, *ig.Graph) {
	st, g := RunWithLiveness(f, dataflow.ComputeLiveness(f), k, 1, tr)
	return st.Moves, finalGraph(f, g, tr)
}

// finalGraph upholds the convenience entry points' contract of always
// returning a graph: when RunWithLiveness skipped the final build
// (because merged moves force the caller to renumber and rebuild
// anyway), build one for the rewritten function here.
func finalGraph(f *ir.Func, g *ig.Graph, tr *obs.Tracer) *ig.Graph {
	if g == nil {
		g = ig.BuildWithLiveness(f, dataflow.ComputeLiveness(f), 1, tr)
	}
	return g
}

// RunConservative coalesces with the Briggs conservative test that
// the same authors published five years after this paper
// ("Improvements to Graph Coloring Register Allocation", TOPLAS
// 1994): a move is merged only when the combined node would have
// fewer than k neighbors of significant degree (degree >= k for
// their class), which guarantees the merge can never turn a
// colorable graph into a spilling one. Included as an ablation — the
// paper's own allocator coalesces aggressively.
func RunConservative(f *ir.Func, k func(ir.Class) int) (int, *ig.Graph) {
	st, g := RunWithLiveness(f, dataflow.ComputeLiveness(f), k, 1, nil)
	return st.Moves, finalGraph(f, g, nil)
}

// interferer is the one question a coalescing round asks of the
// interference relation.
type interferer interface {
	Interfere(a, b int32) bool
}

// RunWithLiveness is the allocator's cache-aware entry point: lv must
// be a current liveness for f, which the first build/coalesce round
// reuses instead of recomputing. Liveness is revalidated only when a
// round actually merged moves (the rewrite renames registers, so the
// cached sets go stale); the common converged round costs no dataflow
// at all. conservativeK, when non-nil, switches to the Briggs
// conservative test; workers > 1 shards the graph builds (see
// ig.BuildWithLiveness).
//
// The returned graph is non-nil only when no move was merged: a
// convergence-without-merges round's graph still describes f exactly,
// so the caller can color on it directly. After any merge, f has been
// rewritten and the caller must renumber before building the graph it
// will color on — returning one here would only be thrown away, so
// none is built. (The aggressive rounds after the first never build
// full graphs at all: they only need membership queries, which the
// much cheaper ig.BuildMatrix answers. Conservative rounds always
// need full graphs — the Briggs test reads neighbor lists.)
func RunWithLiveness(f *ir.Func, lv *dataflow.Liveness, conservativeK func(ir.Class) int, workers int, tr *obs.Tracer) (Stats, *ig.Graph) {
	var st Stats
	var bs *briggsScratch
	if conservativeK != nil {
		// Rewrites rename registers but never add any, so one mark
		// array serves every round's graph.
		bs = &briggsScratch{mark: make([]uint32, f.NumRegs())}
	}
	for {
		var q interferer
		var g *ig.Graph
		if conservativeK != nil || st.Rounds == 0 {
			// The first round's graph doubles as the return value when
			// the function has no coalescable moves — the overwhelmingly
			// common case on every pass after the first.
			g = ig.BuildWithLiveness(f, lv, workers, tr)
			q = g
		} else {
			q = ig.BuildMatrix(f, lv, workers, tr)
		}
		examined := 0
		parent := make([]ir.Reg, f.NumRegs())
		for i := range parent {
			parent[i] = ir.Reg(i)
		}
		var find func(ir.Reg) ir.Reg
		find = func(x ir.Reg) ir.Reg {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}

		merged := 0
		touched := make([]bool, f.NumRegs())
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if !in.IsMove() || in.A == ir.NoReg {
					continue
				}
				dst, src := in.Dst, in.A
				if dst == src {
					continue
				}
				examined++
				// Only coalesce pairs untouched in this round: the
				// static graph g cannot answer interference queries
				// about a range merged moments ago (its true
				// neighbor set is already larger than g records).
				// Chained copies are picked up by the next
				// build/coalesce round.
				if touched[dst] || touched[src] {
					continue
				}
				if f.RegClass(dst) != f.RegClass(src) {
					continue
				}
				if f.RegFlags(dst)&ir.FlagSpillTemp != 0 || f.RegFlags(src)&ir.FlagSpillTemp != 0 {
					continue
				}
				if q.Interfere(int32(dst), int32(src)) {
					continue
				}
				if conservativeK != nil {
					k := conservativeK(f.RegClass(dst))
					ok := bs.briggsTest(g, dst, src, k)
					if briggsObserver != nil {
						briggsObserver(g, dst, src, k, ok)
					}
					if !ok {
						continue
					}
				}
				touched[dst] = true
				touched[src] = true
				// Merge into the smaller id for determinism.
				if src < dst {
					dst, src = src, dst
				}
				parent[src] = dst
				merged++
			}
		}
		if tr.Enabled() {
			tr.Counter(obs.PhaseCoalesce, "coalesce.examined", int64(examined))
			tr.Counter(obs.PhaseCoalesce, "coalesce.merged", int64(merged))
		}
		st.Rounds++
		if merged == 0 {
			if tr.Enabled() {
				tr.Counter(obs.PhaseCoalesce, "coalesce.rounds", int64(st.Rounds))
			}
			if st.Moves > 0 {
				g = nil // f was rewritten; see the contract above
			}
			return st, g
		}
		st.Moves += merged
		rewrite(f, find)
		// The rewrite renamed registers, invalidating lv; the next
		// round needs fresh sets.
		lv = dataflow.ComputeLiveness(f)
		st.LivenessRuns++
	}
}

// briggsObserver, when non-nil, sees every conservative-test query
// and its answer. Tests install it to check the test against a
// reference implementation.
var briggsObserver func(g *ig.Graph, dst, src ir.Reg, k int, ok bool)

// briggsScratch is the conservative test's mark array, one entry per
// graph node: during a query, mark[n] == epoch flags n as a neighbor
// of src and epoch+1 as already counted. Advancing the epoch by two
// clears every mark at once, so a query allocates nothing.
type briggsScratch struct {
	mark  []uint32
	epoch uint32
}

// briggsTest is the conservative-coalescing criterion: merging dst
// and src is safe when the combined node has fewer than k neighbors
// of significant degree. A neighbor adjacent to both ends loses one
// edge in the merge, so its effective degree drops by one. The walk
// costs O(deg dst + deg src) and stops as soon as k significant
// neighbors are found.
func (s *briggsScratch) briggsTest(g *ig.Graph, dst, src ir.Reg, k int) bool {
	s.epoch += 2
	if s.epoch == 0 { // wrapped: stale marks could alias the new epoch
		clear(s.mark)
		s.epoch = 2
	}
	inSrc, counted := s.epoch, s.epoch+1
	d, sr := int32(dst), int32(src)
	srcRow := g.Neighbors(sr)
	for _, nb := range srcRow {
		s.mark[nb] = inSrc
	}
	significant := 0
	for _, nb := range g.Neighbors(d) {
		if nb == sr {
			continue
		}
		deg := g.Degree(nb)
		if s.mark[nb] == inSrc {
			deg--
		}
		s.mark[nb] = counted
		if deg >= k {
			if significant++; significant >= k {
				return false
			}
		}
	}
	for _, nb := range srcRow {
		if nb == d || s.mark[nb] == counted {
			continue
		}
		if g.Degree(nb) >= k {
			if significant++; significant >= k {
				return false
			}
		}
	}
	return significant < k
}

// rewrite renames every operand to its representative and deletes
// moves that became self-copies.
func rewrite(f *ir.Func, find func(ir.Reg) ir.Reg) {
	ren := func(r ir.Reg) ir.Reg {
		if r == ir.NoReg {
			return ir.NoReg
		}
		return find(r)
	}
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			in.Dst = ren(in.Dst)
			in.A = ren(in.A)
			in.B = ren(in.B)
			in.C = ren(in.C)
			for j, a := range in.Args {
				in.Args[j] = ren(a)
			}
			if in.IsMove() && in.Dst == in.A {
				continue // coalesced copy disappears
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	for i, p := range f.Params {
		f.Params[i] = ren(p)
	}
}
