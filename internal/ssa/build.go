package ssa

import (
	"sort"

	"regalloc/internal/cfg"
	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
)

// Construct rewrites f into strict pruned SSA form (in place) and
// returns the SSA view. The steps, in order: normalize the CFG
// (prune unreachable blocks, give the entry block no predecessors),
// add explicit zero definitions for registers upward-exposed at
// entry, split critical edges, compute dominators and dominance
// frontiers, insert pruned phis, and rename definitions along the
// dominator tree.
func Construct(f *ir.Func) (*Func, error) {
	pruneUnreachable(f)
	normalizeEntry(f)
	s := &Func{F: f}
	s.ZeroDefs = insertZeroDefs(f)
	s.SplitEdges = splitCriticalEdges(f)
	s.Info = cfg.Analyze(f)
	s.Kids = domChildren(s.Info)
	s.Phis = make([][]Phi, len(f.Blocks))
	insertPhis(s)
	if err := rename(s); err != nil {
		return nil, err
	}
	return s, nil
}

// pruneUnreachable drops blocks no path from entry reaches. The
// renamer walks the dominator tree, which spans only reachable
// blocks, so unreachable code would otherwise survive un-renamed.
func pruneUnreachable(f *ir.Func) {
	reach := make([]bool, len(f.Blocks))
	var stack []int
	reach[0] = true
	stack = append(stack, 0)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range f.Blocks[b].Succs {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	all := true
	for _, r := range reach {
		all = all && r
	}
	if all {
		return
	}
	newID := make([]int, len(f.Blocks))
	var kept []*ir.Block
	for i, b := range f.Blocks {
		if !reach[i] {
			newID[i] = -1
			continue
		}
		newID[i] = len(kept)
		kept = append(kept, b)
	}
	for _, b := range kept {
		b.ID = newID[b.ID]
		for si, s := range b.Succs {
			b.Succs[si] = newID[s]
		}
	}
	f.Blocks = kept
	f.RecomputePreds()
}

// normalizeEntry guarantees the entry block has no predecessors: a
// loop that branches back to block 0 would otherwise need phi
// arguments for an edge that does not exist (the function-entry
// "edge"). The parameter prologue moves into the fresh entry.
func normalizeEntry(f *ir.Func) {
	if len(f.Blocks[0].Preds) == 0 {
		return
	}
	old := f.Blocks[0]
	// Peel the leading OpParam run off the old entry; OpParam is
	// entry-prologue-only by convention.
	nparams := 0
	for nparams < len(old.Instrs) && old.Instrs[nparams].Op == ir.OpParam {
		nparams++
	}
	entry := &ir.Block{ID: 0}
	entry.Instrs = append(entry.Instrs, old.Instrs[:nparams]...)
	entry.Instrs = append(entry.Instrs, ir.Instr{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg})
	entry.Succs = []int{1}
	old.Instrs = old.Instrs[nparams:]

	blocks := make([]*ir.Block, 0, len(f.Blocks)+1)
	blocks = append(blocks, entry)
	blocks = append(blocks, f.Blocks...)
	for i := 1; i < len(blocks); i++ {
		b := blocks[i]
		b.ID = i
		for si, s := range b.Succs {
			b.Succs[si] = s + 1
		}
	}
	f.Blocks = blocks
	f.RecomputePreds()
}

// insertZeroDefs gives every register that is upward-exposed at
// function entry an explicit `const 0` definition in the entry
// prologue. Both the IR interpreter and the VM zero-initialize their
// register files, so the rewrite preserves semantics while making
// the function strict: every use is now dominated by a definition,
// the precondition for SSA renaming (and for the chordality of the
// SSA interference graph).
func insertZeroDefs(f *ir.Func) int {
	lv := dataflow.ComputeLiveness(f)
	entryLive := lv.In[0]
	if entryLive.Empty() {
		return 0
	}
	entry := f.Blocks[0]
	at := 0
	for at < len(entry.Instrs) && entry.Instrs[at].Op == ir.OpParam {
		at++
	}
	var zeros []ir.Instr
	entryLive.ForEach(func(r int) {
		zeros = append(zeros, ir.Instr{Op: ir.OpConst, Dst: ir.Reg(r), A: ir.NoReg, B: ir.NoReg, C: ir.NoReg})
	})
	out := make([]ir.Instr, 0, len(entry.Instrs)+len(zeros))
	out = append(out, entry.Instrs[:at]...)
	out = append(out, zeros...)
	out = append(out, entry.Instrs[at:]...)
	entry.Instrs = out
	return len(zeros)
}

// splitCriticalEdges inserts a fresh branch-only block on every edge
// from a multi-successor block to a multi-predecessor block. After
// splitting, every predecessor of a join ends in an unconditional
// branch, giving phi lowering a place to put parallel copies (and
// phi insertion the guarantee that join predecessors are distinct).
func splitCriticalEdges(f *ir.Func) int {
	npreds := make([]int, len(f.Blocks))
	for i, b := range f.Blocks {
		npreds[i] = len(b.Preds)
	}
	split := 0
	orig := len(f.Blocks)
	for bi := 0; bi < orig; bi++ {
		b := f.Blocks[bi]
		if len(b.Succs) < 2 {
			continue
		}
		for si, s := range b.Succs {
			if npreds[s] < 2 {
				continue
			}
			nb := f.NewBlock()
			nb.Instrs = []ir.Instr{{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}}
			nb.Succs = []int{s}
			b.Succs[si] = nb.ID
			split++
		}
	}
	if split > 0 {
		f.RecomputePreds()
	}
	return split
}

// domChildren builds the dominator-tree child lists, each ordered by
// reverse-postorder position so every tree walk is deterministic.
func domChildren(info *cfg.Info) [][]int {
	kids := make([][]int, len(info.IDom))
	for b, id := range info.IDom {
		if b == 0 || id < 0 {
			continue
		}
		kids[id] = append(kids[id], b)
	}
	for _, ks := range kids {
		sort.Slice(ks, func(i, j int) bool { return info.RPONum[ks[i]] < info.RPONum[ks[j]] })
	}
	return kids
}

// frontiers computes each block's dominance frontier with the
// Cooper–Harvey–Kennedy join-point walk.
func frontiers(f *ir.Func, info *cfg.Info) [][]int {
	df := make([][]int, len(f.Blocks))
	mark := make([]int, len(f.Blocks))
	for i := range mark {
		mark[i] = -1
	}
	for _, b := range f.Blocks {
		if len(b.Preds) < 2 || info.RPONum[b.ID] < 0 {
			continue
		}
		for _, p := range b.Preds {
			if info.RPONum[p] < 0 {
				continue
			}
			for r := p; r != info.IDom[b.ID]; r = info.IDom[r] {
				if mark[r] != b.ID {
					mark[r] = b.ID
					df[r] = append(df[r], b.ID)
				}
			}
		}
	}
	return df
}

// insertPhis places pruned phis: register r gets a phi at join y iff
// y is in the iterated dominance frontier of r's definition sites
// and r is live into y. Phis are definition sites themselves, hence
// the worklist.
func insertPhis(s *Func) {
	f := s.F
	df := frontiers(f, s.Info)
	lv := dataflow.ComputeLiveness(f)

	nr := f.NumRegs()
	defsites := make([][]int, nr)
	lastDef := make([]int, nr)
	for i := range lastDef {
		lastDef[i] = -1
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg && lastDef[d] != b.ID {
				lastDef[d] = b.ID
				defsites[d] = append(defsites[d], b.ID)
			}
		}
	}

	hasPhi := make([]int, len(f.Blocks))
	queued := make([]int, len(f.Blocks))
	for i := range hasPhi {
		hasPhi[i] = -1
		queued[i] = -1
	}
	var work []int
	for r := 0; r < nr; r++ {
		if len(defsites[r]) == 0 {
			continue
		}
		work = work[:0]
		for _, b := range defsites[r] {
			queued[b] = r
			work = append(work, b)
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, y := range df[b] {
				if hasPhi[y] == r || !lv.In[y].Has(r) {
					continue
				}
				hasPhi[y] = r
				s.Phis[y] = append(s.Phis[y], Phi{
					Var:  ir.Reg(r),
					Dst:  ir.NoReg,
					Args: make([]ir.Reg, len(f.Blocks[y].Preds)),
				})
				if queued[y] != r {
					queued[y] = r
					work = append(work, y)
				}
			}
		}
	}
	for _, ps := range s.Phis {
		for i := range ps {
			for j := range ps[i].Args {
				ps[i].Args[j] = ir.NoReg
			}
		}
	}
}

// rename walks the dominator tree, replacing every definition with a
// fresh register and every use with the definition on top of its
// variable's stack — standard Cytron et al. renaming, with phi
// arguments filled in at each successor.
//
// Copies are propagated on the way: a move's destination variable is
// bound to the *source's* current name instead of a fresh one, and
// the move is deleted. In SSA this is always sound — the source name
// is immutable, so it denotes the same value at every later use.
// This is the renaming-time equivalent of the aggressive coalescing
// the Chaitin path runs: without it, chains of IR-level copies (loop
// exit values, argument shuffles) become distinct simultaneously-live
// values that inflate MAXLIVE past what the program needs.
func rename(s *Func) error {
	f := s.F
	orig := f.NumRegs() // registers before renaming are "variables"
	stacks := make([][]ir.Reg, orig)
	fresh := func(v ir.Reg) ir.Reg {
		nd := f.NewReg(f.RegClass(v))
		if fl := f.RegFlags(v); fl != 0 {
			f.SetRegFlags(nd, fl)
		}
		return nd
	}
	top := func(v ir.Reg) ir.Reg {
		st := stacks[v]
		if len(st) == 0 {
			return ir.NoReg
		}
		return st[len(st)-1]
	}
	// predIndex(y, p) is the position of p in y's predecessor list;
	// after critical-edge splitting a join's predecessors are
	// distinct, so the position is unique.
	predIndex := func(y, p int) int {
		for j, q := range f.Blocks[y].Preds {
			if q == p {
				return j
			}
		}
		return -1
	}

	var walk func(b int) error
	walk = func(b int) error {
		var pushed []ir.Reg
		push := func(v, nd ir.Reg) {
			stacks[v] = append(stacks[v], nd)
			pushed = append(pushed, v)
		}
		blk := f.Blocks[b]
		for i := range s.Phis[b] {
			ph := &s.Phis[b][i]
			ph.Dst = fresh(ph.Var)
			push(ph.Var, ph.Dst)
		}
		var drop []int
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			rewrite := func(r *ir.Reg) error {
				if *r == ir.NoReg {
					return nil
				}
				nd := top(*r)
				if nd == ir.NoReg {
					return errUndefined(f, *r, "instruction use")
				}
				*r = nd
				return nil
			}
			if err := rewrite(&in.A); err != nil {
				return err
			}
			if err := rewrite(&in.B); err != nil {
				return err
			}
			if err := rewrite(&in.C); err != nil {
				return err
			}
			for ai := range in.Args {
				if err := rewrite(&in.Args[ai]); err != nil {
					return err
				}
			}
			if in.Dst != ir.NoReg {
				v := in.Dst
				if in.IsMove() {
					push(v, in.A)
					drop = append(drop, i)
					s.CopyProps++
					continue
				}
				in.Dst = fresh(v)
				push(v, in.Dst)
			}
		}
		if len(drop) > 0 {
			out := blk.Instrs[:0]
			di := 0
			for i := range blk.Instrs {
				if di < len(drop) && drop[di] == i {
					di++
					continue
				}
				out = append(out, blk.Instrs[i])
			}
			blk.Instrs = out
		}
		for _, t := range blk.Succs {
			j := predIndex(t, b)
			for i := range s.Phis[t] {
				ph := &s.Phis[t][i]
				nd := top(ph.Var)
				if nd == ir.NoReg {
					return errUndefined(f, ph.Var, "phi argument")
				}
				ph.Args[j] = nd
			}
		}
		for _, k := range s.Kids[b] {
			if err := walk(k); err != nil {
				return err
			}
		}
		for i := len(pushed) - 1; i >= 0; i-- {
			v := pushed[i]
			stacks[v] = stacks[v][:len(stacks[v])-1]
		}
		return nil
	}
	if err := walk(0); err != nil {
		return err
	}

	// The parameter registers were renamed with everything else;
	// point Params at the new names via the entry prologue.
	entry := f.Entry()
	for i := range entry.Instrs {
		in := &entry.Instrs[i]
		if in.Op != ir.OpParam {
			break
		}
		if int(in.Imm) < len(f.Params) {
			f.Params[in.Imm] = in.Dst
		}
	}
	return nil
}
