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
	"regalloc/internal/bitset"
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
	// LivenessRuns counts the liveness recomputations, one after
	// each merging round, each into the caller's sets in place: the
	// round that reaches fixpoint computes none, so a function with
	// no coalescable moves costs zero. An allocator pass that
	// computed liveness once to renumber, and renumbers again with
	// the coalescer's final liveness, therefore runs liveness exactly
	// Rounds times.
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

// RunWithLiveness is the allocator's cache-aware entry point: lv must
// be a current liveness for f, which the first build/coalesce round
// reuses instead of recomputing. Liveness is recomputed, into lv's
// own sets (see Liveness.Recompute), only when a round actually
// merged moves (the rewrite renames registers, so the sets go stale);
// the common converged round costs no dataflow at all. On return lv
// is the liveness of f as rewritten. conservativeK, when non-nil,
// switches to the Briggs conservative test. The int argument is
// ignored; it stays only because perfbench's probe still passes a
// worker count.
//
// The returned graph is non-nil only when no move was merged: f and
// lv are then unchanged, so the caller can color on it directly.
// After any merge, f has been rewritten and the caller must renumber
// (liverange.RenumberWithLiveness takes lv as it stands) before
// building the graph it will color on — returning one here would
// only be thrown away, so none is built. Aggressive rounds build
// no graph: each asks only whether its candidate moves' two ends
// interfere, which interferingMoves answers by walking just the blocks
// that define a candidate register. Conservative rounds build a full
// graph every round, since the Briggs test reads neighbor lists.
func RunWithLiveness(f *ir.Func, lv *dataflow.Liveness, conservativeK func(ir.Class) int, _ int, tr *obs.Tracer) (Stats, *ig.Graph) {
	var st Stats
	// Rewrites rename registers but never add any, so scratch sized
	// once serves every round.
	n := f.NumRegs()
	var bs *briggsScratch
	var as *aggressiveScratch
	if conservativeK != nil {
		bs = &briggsScratch{mark: make([]uint32, n)}
	} else {
		as = &aggressiveScratch{start: make([]int32, n+1)}
	}
	parent := make([]ir.Reg, n)
	find := func(x ir.Reg) ir.Reg {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	touched := make([]bool, n)
	var cands []move
	for {
		var examined int
		cands, examined = candidates(f, cands[:0])
		var g *ig.Graph
		var check func(dst, src ir.Reg, hit bool)
		if conservativeK != nil {
			g = ig.BuildWithLiveness(f, lv, 0, tr)
		} else {
			as.interferingMoves(f, lv, cands)
			if interferenceObserver != nil {
				check = interferenceObserver(f, lv)
			}
		}
		for i := range parent {
			parent[i] = ir.Reg(i)
		}
		clear(touched)

		merged := 0
		for ci, c := range cands {
			dst, src := c.dst, c.src
			// Only coalesce pairs untouched in this round: the round's
			// interference answers cannot speak for a range merged
			// moments ago (its true neighbor set is already larger).
			// Chained copies are picked up by the next build/coalesce
			// round.
			if touched[dst] || touched[src] {
				continue
			}
			if conservativeK != nil {
				if g.Interfere(int32(dst), int32(src)) {
					continue
				}
				k := conservativeK(f.RegClass(dst))
				ok := bs.briggsTest(g, dst, src, k)
				if briggsObserver != nil {
					briggsObserver(g, dst, src, k, ok)
				}
				if !ok {
					continue
				}
			} else {
				if check != nil {
					check(dst, src, as.hit[ci])
				}
				if as.hit[ci] {
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
				return st, nil // f was rewritten; see the contract above
			}
			if g == nil {
				g = ig.BuildWithLiveness(f, lv, 0, tr)
			}
			return st, g
		}
		st.Moves += merged
		rewrite(f, find)
		// The rewrite renamed registers, invalidating lv; the next
		// round needs fresh sets.
		lv.Recompute(f)
		st.LivenessRuns++
	}
}

// move is a candidate copy dst = src.
type move struct{ dst, src ir.Reg }

// candidates appends to buf, in program order, every move a round may
// merge: distinct same-class registers, neither a spill temporary. It
// also returns the number of moves examined: every copy between
// distinct registers.
func candidates(f *ir.Func, buf []move) ([]move, int) {
	examined := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.IsMove() || in.A == ir.NoReg || in.Dst == in.A {
				continue
			}
			examined++
			dst, src := in.Dst, in.A
			if f.RegClass(dst) != f.RegClass(src) {
				continue
			}
			if f.RegFlags(dst)&ir.FlagSpillTemp != 0 || f.RegFlags(src)&ir.FlagSpillTemp != 0 {
				continue
			}
			buf = append(buf, move{dst, src})
		}
	}
	return buf, examined
}

// interferenceObserver, when non-nil, is called at the start of each
// aggressive round with the (f, lv) the round answers on, and returns
// the function that sees each of the round's queries and its answer.
// Tests install it to check the walk against the full graph.
var interferenceObserver func(f *ir.Func, lv *dataflow.Liveness) func(dst, src ir.Reg, hit bool)

// aggressiveScratch holds an aggressive round's interference answers:
// hit[c] reports whether candidate c's two ends interfere. byReg lists
// candidate indices grouped by register, register r's group being
// byReg[start[r]:start[r+1]].
type aggressiveScratch struct {
	start []int32
	byReg []int32
	hit   []bool
}

// interferingMoves sets hit[c] exactly when ig.BuildWithLiveness(f,
// lv) would report cands[c]'s ends as interfering. The graph holds
// (a, b) iff some instruction defines a while b is live after it and
// b is not that instruction's move source, or the same with a and b
// swapped. Both ends of a candidate share a class, so only the
// instructions defining a candidate register matter, and at each only
// that register's move partners need checking. A block defining no
// candidate register is skipped, and the walk of any other block
// stops at its first such definition.
func (s *aggressiveScratch) interferingMoves(f *ir.Func, lv *dataflow.Liveness, cands []move) {
	s.hit = append(s.hit[:0], make([]bool, len(cands))...)
	if len(cands) == 0 {
		return
	}
	// Counting sort of candidate ends by register: count into start[r],
	// prefix-sum to each group's end, then fill every group from its
	// end down, which leaves start[r] at the group's beginning.
	start := s.start
	clear(start)
	for _, c := range cands {
		start[c.dst]++
		start[c.src]++
	}
	for r := 1; r < len(start); r++ {
		start[r] += start[r-1]
	}
	s.byReg = append(s.byReg[:0], make([]int32, 2*len(cands))...)
	for ci := len(cands) - 1; ci >= 0; ci-- {
		for _, r := range [2]ir.Reg{cands[ci].dst, cands[ci].src} {
			start[r]--
			s.byReg[start[r]] = int32(ci)
		}
	}
	visit := func(_ int, in *ir.Instr, liveAfter *bitset.Set) {
		d := in.Def()
		if d == ir.NoReg {
			return
		}
		moveSrc := ir.NoReg
		if in.IsMove() {
			moveSrc = in.A
		}
		for _, ci := range s.byReg[start[d]:start[d+1]] {
			p := cands[ci].src
			if p == d {
				p = cands[ci].dst
			}
			if p != moveSrc && liveAfter.Has(int(p)) {
				s.hit[ci] = true
			}
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg && start[d] != start[d+1] {
				lv.LiveAcrossRange(f, b, i, visit)
				break
			}
		}
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
