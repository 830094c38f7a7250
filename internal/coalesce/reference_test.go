package coalesce

import (
	"regalloc/internal/bitset"
	"regalloc/internal/dataflow"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
)

// runAggressiveRef is the aggressive round loop as it was before the
// rounds kept per-register mention lists, kept as the reference
// runAggressive is checked against. Every round rescans f for
// candidates, answers them all with a backward walk over the blocks
// that define a candidate register, rewrites the whole of f and
// recomputes all of lv.
func runAggressiveRef(f *ir.Func, lv *dataflow.Liveness, tr *obs.Tracer) (Stats, *ig.Graph) {
	var st Stats
	n := f.NumRegs()
	as := &aggressiveScratch{start: make([]int32, n+1)}
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
		as.interferingMoves(f, lv, cands)
		for i := range parent {
			parent[i] = ir.Reg(i)
		}
		clear(touched)

		merged := 0
		for ci, c := range cands {
			dst, src := c.dst, c.src
			if touched[dst] || touched[src] {
				continue
			}
			if as.hit[ci] {
				continue
			}
			touched[dst] = true
			touched[src] = true
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
				return st, nil
			}
			return st, ig.BuildWithLiveness(f, lv, 0, tr)
		}
		st.Moves += merged
		rewrite(f, find)
		*lv = *dataflow.ComputeLiveness(f)
	}
}

// runConservativeRef is the conservative round loop as it was before
// it shared the aggressive rounds' mention lists, kept as the
// reference conservative runs are checked against. Every round
// rescans f for candidates, builds the full graph and asks it both
// questions, rewrites the whole of f and recomputes all of lv.
func runConservativeRef(f *ir.Func, lv *dataflow.Liveness, conservativeK func(ir.Class) int, tr *obs.Tracer) (Stats, *ig.Graph) {
	var st Stats
	n := f.NumRegs()
	bs := &briggsScratch{mark: make([]uint32, n)}
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
		g := ig.BuildWithLiveness(f, lv, 0, tr)
		for i := range parent {
			parent[i] = ir.Reg(i)
		}
		clear(touched)

		merged := 0
		for _, c := range cands {
			dst, src := c.dst, c.src
			if touched[dst] || touched[src] {
				continue
			}
			if g.Interfere(int32(dst), int32(src)) {
				continue
			}
			if !bs.briggsTest(g, dst, src, conservativeK(f.RegClass(dst))) {
				continue
			}
			touched[dst] = true
			touched[src] = true
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
				return st, nil
			}
			return st, g
		}
		st.Moves += merged
		rewrite(f, find)
		*lv = *dataflow.ComputeLiveness(f)
	}
}

// move is a candidate copy dst = src.
type move struct{ dst, src ir.Reg }

// candidates appends to buf, in program order, every move a reference
// round may merge: distinct same-class registers, neither a spill
// temporary. It also returns the number of moves examined: every copy
// between distinct registers.
func candidates(f *ir.Func, buf []move) ([]move, int) {
	examined := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.IsMove() || in.A == ir.NoReg || in.Dst == in.A {
				continue
			}
			examined++
			if coalescible(f, in.Dst, in.A) {
				buf = append(buf, move{in.Dst, in.A})
			}
		}
	}
	return buf, examined
}

// aggressiveScratch holds a reference round's interference answers:
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
// candidate register is skipped.
func (s *aggressiveScratch) interferingMoves(f *ir.Func, lv *dataflow.Liveness, cands []move) {
	s.hit = append(s.hit[:0], make([]bool, len(cands))...)
	if len(cands) == 0 {
		return
	}
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
				lv.LiveAcross(f, b, visit)
				break
			}
		}
	}
}
