package coalesce

import (
	"context"
	"fmt"
	"slices"

	"regalloc/internal/dataflow"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
)

// A mention is one instruction's reference to a register, in 32 bits:
// the instruction's position in program order (blocks in order, each
// from its first instruction), shifted above two bits that say
// whether the instruction reads the register, defines it, or both.
type mention uint32

const (
	mRead mention = 1 << iota
	mDef
)

func mentionAt(pos int32, kind mention) mention { return mention(pos)<<2 | kind }

func (m mention) pos() int32 { return int32(m >> 2) }

// candidate is a copy a round may merge, with its interference
// answer. dst and src are the operands as the run found them; find
// gives their current names. hit answers for the state at the start of round
// asked, and stays valid until a merge changes either end.
type candidate struct {
	dst, src ir.Reg
	asked    int32
	hit      bool
}

// sparse is a run's view of f as rewritten so far: each register's
// mentions in position order, a union-find over registers whose roots
// are the current names, and the liveness lv of that rewritten
// function. A round deletes a copy by leaving it out of the merged
// register's mentions rather than by editing f, so f and the positions
// change only when apply writes the merges into f.
type sparse struct {
	f  *ir.Func
	lv *dataflow.Liveness

	start    []int32 // start[b]: block b's first position; start[len(f.Blocks)]: the end
	blockOf  []int32 // block of each position
	mentions [][]mention
	parent   []ir.Reg

	cands []candidate
	// selfCopies holds the positions of copies that were already
	// self-copies on entry. They stay until the first merging round,
	// which deletes them, as rewriting f would.
	selfCopies []int32
	// others counts the copies between distinct registers that are not
	// coalescible. They never become self-copies, so a round examines
	// others plus its candidates.
	others int

	buf   []mention // scratch for folding two mention lists
	regs  []ir.Reg  // scratch for mentionsOf
	named []regKind // mentionsOf's result
	work  []int32   // scratch worklist of blocks
	to    []int32   // scratch for apply
	stamp []int32   // stamp[b] == epoch: b mentions the register being revived
	epoch int32
}

func newSparse(f *ir.Func, lv *dataflow.Liveness) *sparse {
	n := f.NumRegs()
	s := &sparse{
		f:       f,
		lv:      lv,
		start:   make([]int32, len(f.Blocks)+1),
		blockOf: make([]int32, 0, f.NumInstrs()),
		parent:  make([]ir.Reg, n),
		stamp:   make([]int32, len(f.Blocks)),
	}
	for r := range s.parent {
		s.parent[r] = ir.Reg(r)
	}
	// A counting sort lays every register's mentions out in one
	// backing array: the first walk counts them, the second fills each
	// register's region from its end, walking backward so that every
	// list comes out in program order.
	at := make([]int32, n+1)
	copies := 0
	for _, b := range f.Blocks {
		s.start[b.ID] = int32(len(s.blockOf))
		for i := range b.Instrs {
			in := &b.Instrs[i]
			s.blockOf = append(s.blockOf, int32(b.ID))
			for _, e := range s.mentionsOf(in) {
				at[e.r]++
			}
			if in.IsMove() && in.A != ir.NoReg {
				copies++
			}
		}
	}
	s.start[len(f.Blocks)] = int32(len(s.blockOf))
	for r := 1; r <= n; r++ {
		at[r] += at[r-1]
	}
	backing := make([]mention, at[n])
	s.cands = make([]candidate, 0, copies)
	for pos := int32(len(s.blockOf)) - 1; pos >= 0; pos-- {
		in := s.instr(pos)
		for _, e := range s.mentionsOf(in) {
			at[e.r]--
			backing[at[e.r]] = mentionAt(pos, e.kind)
		}
		if in.IsMove() && in.A != ir.NoReg {
			s.addCopy(in.Dst, in.A, pos)
		}
	}
	slices.Reverse(s.cands) // into program order, the order rounds try them in
	s.mentions = make([][]mention, n)
	for r := range s.mentions {
		lo, hi := at[r], at[r+1]
		s.mentions[r] = backing[lo:hi:hi]
	}
	return s
}

// regKind is one register an instruction names, and how.
type regKind struct {
	r    ir.Reg
	kind mention
}

// mentionsOf lists the registers the instruction reads or defines,
// each once, with how it uses them. The slice is scratch, valid until
// the next call.
func (s *sparse) mentionsOf(in *ir.Instr) []regKind {
	s.regs = in.AppendUses(s.regs[:0])
	reads := len(s.regs)
	if d := in.Def(); d != ir.NoReg {
		s.regs = append(s.regs, d)
	}
	out := s.named[:0]
next:
	for k, r := range s.regs {
		kind := mRead
		if k >= reads {
			kind = mDef
		}
		for j := range out {
			if out[j].r == r {
				out[j].kind |= kind
				continue next
			}
		}
		out = append(out, regKind{r, kind})
	}
	s.named = out
	return out
}

// addCopy files the copy dst = src at pos as a self-copy, a candidate
// or one of the others.
func (s *sparse) addCopy(dst, src ir.Reg, pos int32) {
	switch {
	case dst == src:
		s.selfCopies = append(s.selfCopies, pos)
	case coalescible(s.f, dst, src):
		s.cands = append(s.cands, candidate{dst: dst, src: src})
	default:
		s.others++
	}
}

func (s *sparse) find(x ir.Reg) ir.Reg {
	for s.parent[x] != x {
		s.parent[x] = s.parent[s.parent[x]]
		x = s.parent[x]
	}
	return x
}

func (s *sparse) instr(pos int32) *ir.Instr {
	b := s.blockOf[pos]
	return &s.f.Blocks[b].Instrs[pos-s.start[b]]
}

// interfere reports whether ig.BuildWithLiveness, run on f as
// rewritten so far, would put an edge between a and b.
func (s *sparse) interfere(a, b ir.Reg) bool {
	return s.defLiveOver(a, b) || s.defLiveOver(b, a)
}

// defLiveOver reports whether some definition of a, other than a copy
// from b, has b live just after it: b's next mention in that block is
// a read or, when the block does not mention b again, b is live out of
// it. The definitions come in position order, so each search for b's
// next mention starts where the last one ended.
func (s *sparse) defLiveOver(a, b ir.Reg) bool {
	mb := s.mentions[b]
	j := 0
	for _, m := range s.mentions[a] {
		if m&mDef == 0 {
			continue
		}
		p := m.pos()
		if in := s.instr(p); in.IsMove() && s.find(in.A) == b {
			continue
		}
		// Binary search for the first mention of b after p.
		lo, hi := j, len(mb)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if mb[mid].pos() <= p {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		j = lo
		blk := s.blockOf[p]
		if j < len(mb) && mb[j].pos() < s.start[blk+1] {
			if mb[j]&mRead != 0 {
				return true
			}
		} else if s.lv.Out[blk].Has(int(b)) {
			return true
		}
	}
	return false
}

// fold merges src's mentions into dst's. An instruction that mentions
// both is one mention of dst; if it is a copy, it is now a self-copy
// and is left out, which deletes it.
func (s *sparse) fold(dst, src ir.Reg) {
	a, b := s.mentions[dst], s.mentions[src]
	out := s.buf[:0]
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || i < len(a) && a[i].pos() < b[j].pos():
			out = append(out, a[i])
			i++
		case i == len(a) || b[j].pos() < a[i].pos():
			out = append(out, b[j])
			j++
		default:
			if !s.instr(a[i].pos()).IsMove() {
				out = append(out, a[i]|b[j])
			}
			i++
			j++
		}
	}
	s.buf = out
	// a's capacity ends where the next register's list begins, so
	// appending past it moves the list rather than overwriting.
	s.mentions[dst] = append(a[:0], out...)
	s.mentions[src] = nil
}

// drop removes the mention at pos from r's list.
func (s *sparse) drop(r ir.Reg, pos int32) {
	ms := s.mentions[r]
	for i := range ms {
		if ms[i].pos() == pos {
			s.mentions[r] = append(ms[:i], ms[i+1:]...)
			return
		}
	}
}

// forget removes the registers from every live-in and live-out set,
// visiting each set once.
func (s *sparse) forget(regs []ir.Reg) {
	for b := range s.lv.In {
		in, out := s.lv.In[b], s.lv.Out[b]
		for _, r := range regs {
			in.Remove(int(r))
			out.Remove(int(r))
		}
	}
}

// revive computes the liveness of r, which no set holds, from its
// mentions alone. r is live into each block whose first mention of it
// is a read, and from there backward over predecessors until a block
// whose first mention is a definition. Liveness is separable by
// register, so this is exactly what a full solve would give r.
func (s *sparse) revive(r ir.Reg) {
	in, out := s.lv.In, s.lv.Out
	s.epoch++
	work := s.work[:0]
	last := int32(-1)
	for _, m := range s.mentions[r] {
		b := s.blockOf[m.pos()]
		if b == last {
			continue
		}
		last = b
		s.stamp[b] = s.epoch
		if m&mRead != 0 {
			in[b].Add(int(r))
			work = append(work, b)
		}
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range s.f.Blocks[b].Preds {
			if out[p].Has(int(r)) {
				continue
			}
			out[p].Add(int(r))
			if s.stamp[p] != s.epoch {
				in[p].Add(int(r))
				work = append(work, int32(p))
			}
		}
	}
	s.work = work
}

// apply rewrites f with the merges s holds, deleting the copies they
// made self-copies, and moves every mention to its instruction's new
// position, so that s describes f as it now stands.
func (s *sparse) apply() {
	// to[p] is where the instruction at p moves. No list mentions a
	// deleted copy, so its entry is never read.
	to := s.to[:0]
	next := int32(0)
	for p := range s.blockOf {
		to = append(to, next)
		if in := s.instr(int32(p)); !in.IsMove() || rename(s.find, in.Dst) != rename(s.find, in.A) {
			next++
		}
	}
	s.to = to
	rewrite(s.f, s.find)
	for _, ms := range s.mentions {
		for i, m := range ms {
			ms[i] = mentionAt(to[m.pos()], m&(mRead|mDef))
		}
	}
	s.blockOf = s.blockOf[:0]
	for _, b := range s.f.Blocks {
		s.start[b.ID] = int32(len(s.blockOf))
		for range b.Instrs {
			s.blockOf = append(s.blockOf, int32(b.ID))
		}
	}
	s.start[len(s.f.Blocks)] = int32(len(s.blockOf))
}

// current returns f as rewritten so far: f itself when s holds no
// merges f does not show, otherwise a rewritten copy. Only the test
// observers call it.
func (s *sparse) current(pending bool) *ir.Func {
	if !pending {
		return s.f
	}
	c := s.f.Clone()
	rewrite(c, s.find)
	return c
}

// run is RunContext's build/coalesce fixpoint, in both modes. Each
// round tries the candidates in program order and merges every one
// whose ends do not interfere, were not merged earlier in the round
// and, under conservativeK, pass the Briggs test on the round's graph,
// exactly as the rounds did when each one rewrote f and re-solved lv.
func run(ctx context.Context, f *ir.Func, lv *dataflow.Liveness, conservativeK func(ir.Class) int, tr *obs.Tracer) (Stats, *ig.Graph, error) {
	var st Stats
	s := newSparse(f, lv)
	n := f.NumRegs()
	touched := make([]bool, n)
	// changed[r] is the last round whose merges changed r's mentions
	// and liveness; an answer asked in a round after it still holds.
	changed := make([]int32, n)
	conservative := conservativeK != nil
	var bs briggsScratch
	if conservative {
		bs.mark = make([]uint32, n)
	}
	var merges [][2]ir.Reg
	var gone []ir.Reg
	for {
		if err := ctx.Err(); err != nil {
			return st, nil, fmt.Errorf("coalesce: cancelled before round %d: %w", st.Rounds+1, err)
		}
		round := int32(st.Rounds + 1)
		var check func(dst, src ir.Reg, hit, fresh bool)
		if roundObserver != nil {
			// Only an aggressive run holds merges f does not show yet.
			check = roundObserver(s.current(!conservative && st.Moves > 0), lv)
		}
		// A conservative round's f is current: the last merging round
		// rewrote it.
		var g *ig.Graph
		if conservative {
			g = ig.BuildWithLiveness(f, lv, 0, tr)
		}
		merges = merges[:0]
		for i := range s.cands {
			c := &s.cands[i]
			dst, src := s.find(c.dst), s.find(c.src)
			// Only coalesce pairs untouched in this round: the round's
			// answers cannot speak for a range merged moments ago (its
			// true neighbor set is already larger). Chained copies are
			// picked up by the next round.
			if touched[dst] || touched[src] {
				continue
			}
			fresh := c.asked <= changed[dst] || c.asked <= changed[src]
			if fresh {
				c.hit = s.interfere(dst, src)
				c.asked = round
			}
			if check != nil {
				check(dst, src, c.hit, fresh)
			}
			if c.hit {
				continue
			}
			if conservative {
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
			merges = append(merges, [2]ir.Reg{dst, src})
		}
		if tr.Enabled() {
			tr.Counter(obs.PhaseCoalesce, "coalesce.examined", int64(s.others+len(s.cands)))
			tr.Counter(obs.PhaseCoalesce, "coalesce.merged", int64(len(merges)))
		}
		st.Rounds++
		if len(merges) == 0 {
			if tr.Enabled() {
				tr.Counter(obs.PhaseCoalesce, "coalesce.rounds", int64(st.Rounds))
			}
			if st.Moves > 0 {
				if !conservative {
					rewrite(f, s.find) // the only rewrite of an aggressive run
				}
				return st, nil, nil // see RunContext's contract
			}
			return st, g, nil // the Briggs test's graph; nil when aggressive
		}
		// gone lists the registers whose liveness is now stale: the
		// merged-away ones, which f no longer mentions, and from
		// gone[revive:] on, the ones whose liveness is recomputed.
		gone = gone[:0]
		for _, m := range merges {
			gone = append(gone, m[1])
		}
		revive := len(gone)
		mark := func(r ir.Reg) {
			if changed[r] != round {
				changed[r] = round
				gone = append(gone, r)
			}
		}
		for _, m := range merges {
			dst, src := m[0], m[1]
			touched[dst] = false
			touched[src] = false
			s.parent[src] = dst
			s.fold(dst, src)
			mark(dst)
		}
		// The first merging round also deletes the copies that were
		// self-copies on entry, as a rewrite of f would.
		for _, pos := range s.selfCopies {
			r := s.find(s.instr(pos).Dst)
			s.drop(r, pos)
			mark(r)
		}
		s.selfCopies = nil
		st.Moves += len(merges)
		s.forget(gone)
		for _, r := range gone[revive:] {
			s.revive(r)
		}
		live := s.cands[:0]
		for _, c := range s.cands {
			if s.find(c.dst) != s.find(c.src) {
				live = append(live, c)
			}
		}
		s.cands = live
		if conservative {
			// The next round's graph must describe the merged f.
			s.apply()
		}
	}
}
