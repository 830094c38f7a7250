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
//
// Both modes run one round loop. It answers each candidate's
// interference question from every register's list of the instructions
// that read or define it, and a merge updates only the merged
// registers' lists and liveness, so no round re-solves liveness. An
// aggressive round needs nothing more, and the function is rewritten
// once, at the fixpoint. A conservative round also builds the full
// graph for the Briggs test, so each merging round rewrites the
// function for the next round's graph, and moves every mention to its
// instruction's new position. The result is the same, merge for merge,
// as rebuilding everything every round.
package coalesce

import (
	"context"

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
	lv := dataflow.ComputeLiveness(f)
	st, g := RunWithLiveness(f, lv, nil, 0, nil)
	return st.Moves, finalGraph(f, g, lv)
}

// finalGraph upholds the convenience entry points' contract of always
// returning a graph: when RunWithLiveness skipped the final build
// (because merged moves force the caller to renumber and rebuild
// anyway), build one for the rewritten function here, on the liveness
// the run left in lv.
func finalGraph(f *ir.Func, g *ig.Graph, lv *dataflow.Liveness) *ig.Graph {
	if g == nil {
		g = ig.BuildWithLiveness(f, lv, 0, nil)
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
	lv := dataflow.ComputeLiveness(f)
	st, g := RunWithLiveness(f, lv, k, 0, nil)
	return st.Moves, finalGraph(f, g, lv)
}

// RunWithLiveness is RunContext without cancellation. The int
// argument is ignored; it stays only because perfbench's probe still
// passes a worker count.
func RunWithLiveness(f *ir.Func, lv *dataflow.Liveness, conservativeK func(ir.Class) int, _ int, tr *obs.Tracer) (Stats, *ig.Graph) {
	st, g, _ := RunContext(context.Background(), f, lv, conservativeK, tr)
	return st, g
}

// RunContext is the allocator's cache-aware entry point: lv must be a
// current liveness for f, which the rounds keep current instead of
// recomputing. On return lv is the liveness of f as rewritten.
// conservativeK, when non-nil, switches to the Briggs conservative
// test. ctx is checked before every round; once it is done, RunContext
// returns an error wrapping ctx.Err(), and f and lv are left in no
// particular state.
//
// The returned graph is non-nil only when no move was merged: f and
// lv are then unchanged, so the caller can color on it directly.
// After any merge, f has been rewritten and the caller must renumber
// (liverange.RenumberWithLiveness takes lv as it stands) before
// building the graph it will color on — returning one here would
// only be thrown away, so none is built.
//
// No round computes liveness. Once per call, every register gets the
// position-sorted list of instructions that read or define it. A round
// asks only whether its candidate moves' two ends interfere, and
// answers from those lists and lv; a candidate neither of whose ends
// was merged in the round before keeps its answer. A merge folds one
// list into the other and recomputes the merged register's liveness
// alone. Aggressive rounds rewrite f once, at the fixpoint. Since the
// Briggs test reads neighbor lists, each conservative round also
// builds the full graph, so a conservative round that merged rewrites
// f for the next round's graph and moves every mention to its
// instruction's new position.
func RunContext(ctx context.Context, f *ir.Func, lv *dataflow.Liveness, conservativeK func(ir.Class) int, tr *obs.Tracer) (Stats, *ig.Graph, error) {
	if runObserver == nil {
		return run(ctx, f, lv, conservativeK, tr)
	}
	end := runObserver(f, lv, conservativeK)
	st, g, err := run(ctx, f, lv, conservativeK, tr)
	end(st)
	return st, g, err
}

// coalescible reports whether a copy between the distinct registers
// dst and src may merge them: they share a class and neither is a
// spill temporary. Merging keeps both properties, so a copy that is
// not coalescible never becomes so.
func coalescible(f *ir.Func, dst, src ir.Reg) bool {
	return f.RegClass(dst) == f.RegClass(src) &&
		f.RegFlags(dst)&ir.FlagSpillTemp == 0 && f.RegFlags(src)&ir.FlagSpillTemp == 0
}

// roundObserver, when non-nil, is called at the start of each
// round with f as rewritten so far and the liveness the
// round answers on, and returns the function that sees each
// interference answer the round uses, asked afresh or kept from an
// earlier round. Tests install it to check the answers and the
// liveness against a full solve.
var roundObserver func(f *ir.Func, lv *dataflow.Liveness) func(dst, src ir.Reg, hit, fresh bool)

// runObserver, when non-nil, is called as each run starts, with the
// f, lv and conservativeK it was handed, and the function it returns
// is called with the run's Stats when the run returns. Tests install
// it to hold each run to the reference round loops.
var runObserver func(f *ir.Func, lv *dataflow.Liveness, conservativeK func(ir.Class) int) func(Stats)

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
	ren := func(r ir.Reg) ir.Reg { return rename(find, r) }
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

// rename is r's representative under find; NoReg stays NoReg.
func rename(find func(ir.Reg) ir.Reg, r ir.Reg) ir.Reg {
	if r == ir.NoReg {
		return ir.NoReg
	}
	return find(r)
}
