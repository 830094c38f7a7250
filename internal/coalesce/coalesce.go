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
// registers' lists and liveness, so no round re-solves liveness, and
// the function is rewritten once, at the fixpoint. The Briggs test of
// a conservative run reads a graph: the run builds it in its first
// round and carries it from there as neighbor rows. After a merging
// round only the rows of the registers whose mentions changed are
// rebuilt, each from its group's old rows, every candidate checked
// against the same edge rule; the other rows only trade entries. On
// the 29 suite units at (16,8), Briggs under ConservativeCoalesce then
// inserts 813,510 edges in graph builds instead of 2,937,695, and on a
// shared 2-vCPU host it allocates the 800-loop unit in about 8 times
// its compile time instead of about 65. The result is the same, merge
// for merge, as rebuilding everything every round.
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
// test ("Improvements to Graph Coloring Register Allocation", TOPLAS
// 1994), an ablation: the paper's own allocator coalesces
// aggressively. ctx is checked before every round; once it is done,
// RunContext returns an error wrapping ctx.Err(), and f and lv are
// left in no particular state.
//
// The returned graph is non-nil only when a conservative run merged
// nothing: it is the graph the last round's Briggs test read, and f
// and lv are unchanged, so the caller can color on it directly. An
// aggressive run builds no graph; the caller builds the one it colors
// on. After any merge, f has been rewritten and the caller must
// renumber (liverange.RenumberWithLiveness takes lv as it stands)
// before building that graph.
//
// No round computes liveness. Once per call, every register gets the
// position-sorted list of instructions that read or define it. A round
// asks only whether its candidate moves' two ends interfere, and
// answers from those lists and lv; a candidate neither of whose ends
// was merged in the round before keeps its answer. A merge folds one
// list into the other and recomputes the merged register's liveness
// alone. Both modes rewrite f once, at the fixpoint. The Briggs test
// reads neighbor lists, so a conservative run builds the full graph
// once, in its first round, and after each merging round edits it into
// the graph of f as rewritten so far: the merged-away registers' rows
// are cleared, and the row of each register whose mentions changed is
// rebuilt from the old rows of the registers merged into it, keeping a
// neighbor only if the same edge rule, asked from the changed
// register's definitions alone, says the two interfere. Every other
// row only drops the stale registers and takes the rebuilt rows'
// entries back. The plain union of the old rows would not do: the
// deleted copy, or a move out of either end, can be an edge's only
// witness.
func RunContext(ctx context.Context, f *ir.Func, lv *dataflow.Liveness, conservativeK func(ir.Class) int, tr *obs.Tracer) (Stats, *ig.Graph, error) {
	if runObserver == nil {
		return run(ctx, f, lv, conservativeK, tr)
	}
	end := runObserver(f, lv, conservativeK)
	st, g, err := run(ctx, f, lv, conservativeK, tr)
	end(st)
	return st, g, err
}

// Skipped marks a round the caller did not run on f and lv because it
// knows the round would merge nothing. It does nothing unless a test
// is watching; the test then runs the round on copies of f and lv to
// hold the caller to that.
func Skipped(f *ir.Func, lv *dataflow.Liveness) {
	if skipObserver != nil {
		skipObserver(f, lv)
	}
}

// coalescible reports whether a copy between the distinct registers
// dst and src may merge them: they share a class and neither is a
// spill temporary. Merging a reload temporary back into a long-lived
// range would undo the spill and could keep the allocator from
// converging. Merging keeps both properties, so a copy that is not
// coalescible never becomes so.
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

// skipObserver, when non-nil, sees the f and lv of every round a
// caller marked Skipped.
var skipObserver func(f *ir.Func, lv *dataflow.Liveness)

// briggsObserver, when non-nil, is called at the start of each
// conservative round with f as rewritten so far, and returns the
// function that sees each of the round's conservative-test queries and
// its answer. Tests install it to check the test against a reference
// implementation on a fresh graph.
var briggsObserver func(f *ir.Func) func(dst, src ir.Reg, k int, ok bool)

// graphObserver, when non-nil, is called at the start of each
// conservative round that follows a merge, with f as rewritten so far
// and the graph the run carries. Tests install it to hold that graph to
// a fresh build.
var graphObserver func(f *ir.Func, rows [][]int32)

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
// edge in the merge, so its effective degree drops by one. rows is the
// graph as neighbor rows, a node's degree its row's length. The walk
// costs O(deg dst + deg src) and stops as soon as k significant
// neighbors are found.
func (s *briggsScratch) briggsTest(rows [][]int32, dst, src ir.Reg, k int) bool {
	s.epoch += 2
	if s.epoch == 0 { // wrapped: stale marks could alias the new epoch
		clear(s.mark)
		s.epoch = 2
	}
	inSrc, counted := s.epoch, s.epoch+1
	d, sr := int32(dst), int32(src)
	srcRow := rows[sr]
	for _, nb := range srcRow {
		s.mark[nb] = inSrc
	}
	significant := 0
	for _, nb := range rows[d] {
		if nb == sr {
			continue
		}
		deg := len(rows[nb])
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
		if len(rows[nb]) >= k {
			if significant++; significant >= k {
				return false
			}
		}
	}
	return significant < k
}
