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
// stay as the run found them until the fixpoint rewrites f once.
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

	// rows is the interference graph a conservative run carries from
	// round to round: rows[r] lists r's neighbors in no particular
	// order, so r's degree is len(rows[r]). That is all the Briggs test
	// reads. Round 1 takes the rows from ig.BuildWithLiveness, and
	// regraph edits them after each merging round.
	rows [][]int32

	buf   []mention // scratch for folding two mention lists
	regs  []ir.Reg  // scratch for mentionsOf
	named []regKind // mentionsOf's result
	work  []int32   // scratch worklist of blocks
	stamp []int32   // stamp[b] == epoch: b mentions the register being revived
	epoch int32

	// regraph's scratch: seen[r] == seenEpoch marks r as met during the
	// current step, defs holds a changed register's definitions, near
	// its candidate neighbors, and fresh its rebuilt row and those of
	// the round's other changed registers, fresh[at[i]:at[i+1]] each.
	seen      []int32
	seenEpoch int32
	defs      []int32
	near      []ir.Reg
	fresh     []int32
	at        []int32
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
// from b, has b live just after it. The definitions come in position
// order, so each search for b's next mention starts where the last one
// ended.
func (s *sparse) defLiveOver(a, b ir.Reg) bool {
	j := 0
	for _, m := range s.mentions[a] {
		if m&mDef == 0 {
			continue
		}
		var live bool
		if live, j = s.liveAfter(m.pos(), b, j); live {
			return true
		}
	}
	return false
}

// defsLiveOver is defLiveOver with a's definitions already listed, in
// position order, so that it walks them alone and not every mention.
func (s *sparse) defsLiveOver(defs []int32, b ir.Reg) bool {
	j := 0
	for _, p := range defs {
		var live bool
		if live, j = s.liveAfter(p, b, j); live {
			return true
		}
	}
	return false
}

// liveAfter reports whether the definition at p puts an edge to b:
// it is not a copy from b, and b is live just after it, because b's
// next mention in the block is a read or, when the block does not
// mention b again, b is live out of it. The search for b's next mention
// starts at b's j-th mention, and liveAfter returns where it ended.
func (s *sparse) liveAfter(p int32, b ir.Reg, j int) (bool, int) {
	if in := s.instr(p); in.IsMove() && s.find(in.A) == b {
		return false, j
	}
	mb := s.mentions[b]
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
	blk := s.blockOf[p]
	if lo < len(mb) && mb[lo].pos() < s.start[blk+1] {
		return mb[lo]&mRead != 0, lo
	}
	return s.lv.Out[blk].Has(int(b)), lo
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

// current returns f as rewritten so far: f itself until a round
// merges, otherwise a rewritten copy. Only the test observers call it.
func (s *sparse) current(merged bool) *ir.Func {
	if !merged {
		return s.f
	}
	c := s.f.Clone()
	c.RenameRegs(s.find)
	return c
}

// rowsOf returns g's adjacency as rows the carried graph can edit: each
// row is g's own, capped at its length, so that growing it moves it
// rather than overwriting the next row.
func rowsOf(g *ig.Graph) [][]int32 {
	rows := make([][]int32, g.NumNodes())
	for a := range rows {
		nb := g.Neighbors(int32(a))
		rows[a] = nb[:len(nb):len(nb)]
	}
	return rows
}

// stale reports whether round changed r: r merged into another register
// (in this round; an earlier merge left r in no row), or r is one of
// the registers whose mentions the round changed.
func (s *sparse) stale(r int32, changed []int32, round int32) bool {
	return s.parent[r] != ir.Reg(r) || changed[r] == round
}

// regraph edits s.rows, the graph of f as rewritten before the round
// that just merged, into the graph of f as it now stands. gone lists
// the registers round merged away, then from gone[revive:] on the ones
// whose mentions it changed: merges[i]'s survivor is gone[revive+i],
// and the rest hold the on-entry self-copies the round deleted.
//
// Two registers whose mentions did not change interfere exactly as
// before, so only the changed registers' rows are rebuilt, and every
// other row only trades its entries for stale registers for the
// rebuilt rows' entries. A changed register's neighbors are among the
// old neighbors of its group (itself and the register merged into
// it), mapped through find, but not all of them are: the deleted copy,
// or a move out of either end, may have been an edge's only witness.
// So each candidate stays only when interfere's edge rule says so,
// walking the changed register's definitions alone; the register a
// loop's copies all read may have hundreds of reads and one
// definition.
func (s *sparse) regraph(merges [][2]ir.Reg, gone []ir.Reg, revive int, changed []int32, round int32) {
	rows := s.rows
	if s.seen == nil {
		s.seen = make([]int32, len(rows))
	}
	// Rebuild every changed row from the old rows before any row
	// changes.
	fresh, at := s.fresh[:0], s.at[:0]
	for i, r := range gone[revive:] {
		s.seenEpoch++
		s.seen[r] = s.seenEpoch
		group := [2]ir.Reg{r, ir.NoReg}
		if i < len(merges) {
			group[1] = merges[i][1]
		}
		near := s.near[:0]
		for _, x := range group {
			if x == ir.NoReg {
				break
			}
			for _, t := range rows[x] {
				if u := s.find(ir.Reg(t)); s.seen[u] != s.seenEpoch {
					s.seen[u] = s.seenEpoch
					near = append(near, u)
				}
			}
		}
		s.near = near
		defs := s.defs[:0]
		for _, m := range s.mentions[r] {
			if m&mDef != 0 {
				defs = append(defs, m.pos())
			}
		}
		s.defs = defs
		at = append(at, int32(len(fresh)))
		for _, u := range near {
			if s.defsLiveOver(defs, u) || s.defLiveOver(u, r) {
				fresh = append(fresh, int32(u))
			}
		}
	}
	at = append(at, int32(len(fresh)))
	s.fresh, s.at = fresh, at
	// Every unchanged neighbor of a stale register drops its entries for
	// stale registers, once.
	s.seenEpoch++
	for _, x := range gone {
		for _, t := range rows[x] {
			if s.seen[t] == s.seenEpoch || s.stale(t, changed, round) {
				continue
			}
			s.seen[t] = s.seenEpoch
			kept := rows[t][:0]
			for _, u := range rows[t] {
				if !s.stale(u, changed, round) {
					kept = append(kept, u)
				}
			}
			rows[t] = kept
		}
	}
	// Then the rebuilt rows go in, each entry for an unchanged register
	// mirrored in that register's row; two changed registers list each
	// other already.
	for _, x := range gone[:revive] {
		rows[x] = nil
	}
	for i, r := range gone[revive:] {
		row := fresh[at[i]:at[i+1]]
		for _, u := range row {
			if !s.stale(u, changed, round) {
				rows[u] = append(rows[u], int32(r))
			}
		}
		rows[r] = append(rows[r][:0], row...)
	}
}

// run is RunContext's build/coalesce fixpoint, in both modes. Each
// round tries the candidates in program order and merges every one
// whose ends do not interfere, were not merged earlier in the round
// and, under conservativeK, pass the Briggs test on the round's graph,
// exactly as the rounds did when each one rewrote f, re-solved lv and,
// under conservativeK, rebuilt the graph. A conservative run builds the
// graph in its first round and carries it from there (regraph).
func run(ctx context.Context, f *ir.Func, lv *dataflow.Liveness, conservativeK func(ir.Class) int, tr *obs.Tracer) (Stats, *ig.Graph, error) {
	var st Stats
	s := newSparse(f, lv)
	n := f.NumRegs()
	touched := make([]bool, n)
	// changed[r] is the last round whose merges changed r's mentions
	// and liveness; an answer asked in a round after it still holds.
	changed := make([]int32, n)
	conservative := conservativeK != nil
	var g *ig.Graph // round 1's graph, returned if the run merges nothing
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
		if conservative && round == 1 {
			g = ig.BuildWithLiveness(f, lv, 0, tr)
			s.rows = rowsOf(g)
		}
		check, checkBriggs := s.observe(st.Moves > 0, conservative)
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
				ok := bs.briggsTest(s.rows, dst, src, k)
				if checkBriggs != nil {
					checkBriggs(dst, src, k, ok)
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
				f.RenameRegs(s.find) // the run's only rewrite
				return st, nil, nil  // see RunContext's contract
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
			s.regraph(merges, gone, revive, changed, round)
		}
	}
}

// observe hands the test observers installed the round about to start,
// with f as rewritten so far, made once for all of them, and returns
// the functions that see its interference answers and Briggs answers;
// nil when no observer watches. A conservative round after a merge
// also shows graphObserver the graph it carries.
func (s *sparse) observe(merged, conservative bool) (check func(dst, src ir.Reg, hit, fresh bool), checkBriggs func(dst, src ir.Reg, k int, ok bool)) {
	if roundObserver == nil && (!conservative || briggsObserver == nil && graphObserver == nil) {
		return nil, nil
	}
	cur := s.current(merged)
	if roundObserver != nil {
		check = roundObserver(cur, s.lv)
	}
	if conservative && merged && graphObserver != nil {
		graphObserver(cur, s.rows)
	}
	if conservative && briggsObserver != nil {
		checkBriggs = briggsObserver(cur)
	}
	return check, checkBriggs
}
