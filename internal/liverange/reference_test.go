package liverange

import (
	"testing"

	"regalloc/internal/bitset"
	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
)

// renumberRef is Renumber as it was built on reaching definitions,
// kept as the reference the liveness-based Renumber is checked
// against. It returns the number of webs, and panics on a read no
// definition reaches, such as one in unreachable code.
func renumberRef(f *ir.Func) int {
	r := computeReaching(f)
	ns := len(r.Sites)

	// Union-find over def sites: two defs belong to the same web
	// when some use is reached by both.
	parent := make([]int, ns)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			// Keep the smaller root for deterministic numbering.
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}

	for _, b := range f.Blocks {
		r.walkUses(f, b, func(_ int, _ *ir.Instr, _ ir.Reg, ds []int) {
			for i := 1; i < len(ds); i++ {
				union(ds[0], ds[i])
			}
		})
	}

	// Number webs in order of their smallest def site, which keeps
	// numbering deterministic (the paper's footnote 4: ties between
	// equal-cost ranges are broken by an arbitrary but fixed index).
	webOf := make([]ir.Reg, ns)
	for i := range webOf {
		webOf[i] = ir.NoReg
	}
	var cls []ir.Class
	var flags []ir.Flags
	next := ir.Reg(0)
	for si := 0; si < ns; si++ {
		root := find(si)
		if webOf[root] == ir.NoReg {
			webOf[root] = next
			orig := r.Sites[root].Reg
			cls = append(cls, f.RegClass(orig))
			flags = append(flags, f.RegFlags(orig))
			next++
		}
		webOf[si] = webOf[root]
	}

	// Index real def sites by (block, instr).
	siteAt := make([]map[int]int, len(f.Blocks))
	for i := range siteAt {
		siteAt[i] = make(map[int]int)
	}
	for si, s := range r.Sites {
		if s.Index >= 0 {
			siteAt[s.Block][s.Index] = si
		}
	}

	// Rewrite every operand. Uses are resolved against the reaching
	// set *before* the instruction's own definition takes effect.
	for _, b := range f.Blocks {
		cur := r.In[b.ID].Copy()
		for i := range b.Instrs {
			in := &b.Instrs[i]
			resolve := func(u ir.Reg) ir.Reg {
				if u == ir.NoReg {
					return ir.NoReg
				}
				for _, si := range r.ByReg[u] {
					if cur.Has(si) {
						return webOf[si]
					}
				}
				// A reachable use with no reaching def cannot
				// occur: every register live into the entry block
				// received a fabricated entry def site.
				panic("liverange: use without reaching definition")
			}
			in.A = resolve(in.A)
			in.B = resolve(in.B)
			in.C = resolve(in.C)
			for j, a := range in.Args {
				in.Args[j] = resolve(a)
			}
			if d := in.Def(); d != ir.NoReg {
				for _, si := range r.ByReg[d] {
					cur.Remove(si)
				}
				si := siteAt[b.ID][i]
				cur.Add(si)
				in.Dst = webOf[si]
			}
		}
	}

	// Params refer to the webs of their OpParam definitions.
	remapParams(f)

	f.ResetRegs(cls, flags)
	return int(next)
}

// defSite identifies one definition occurrence: instruction Index of
// block Block defines register Reg. The renumbering pass also
// fabricates one "entry" def site (Block = 0, Index = -1) for any
// register with an upward-exposed use at function entry, so every
// use has at least one reaching definition.
type defSite struct {
	Block int
	Index int // -1 for a fabricated entry definition
	Reg   ir.Reg
}

// reaching is the result of reaching-definitions analysis.
type reaching struct {
	Sites  []defSite     // all def sites, in discovery order
	ByReg  [][]int       // def-site indices per register
	In     []*bitset.Set // per block: sites reaching block entry
	numReg int
}

// computeReaching runs forward iterative reaching-definitions
// analysis over def sites.
func computeReaching(f *ir.Func) *reaching {
	nr := f.NumRegs()
	r := &reaching{ByReg: make([][]int, nr), numReg: nr}

	// Enumerate def sites. Fabricated entry defs come first, one for
	// each register live into the entry block, so that reads before
	// any write (possible for uninitialized scalars) still resolve. A
	// register nothing reads or defines gets no site, and so no web.
	liveIn := dataflow.ComputeLiveness(f).In[0]
	for reg := 0; reg < nr; reg++ {
		if liveIn.Has(reg) {
			r.addSite(defSite{Block: 0, Index: -1, Reg: ir.Reg(reg)})
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg {
				r.addSite(defSite{Block: b.ID, Index: i, Reg: d})
			}
		}
	}

	ns := len(r.Sites)
	gen := make([]*bitset.Set, len(f.Blocks))
	kill := make([]*bitset.Set, len(f.Blocks))
	r.In = make([]*bitset.Set, len(f.Blocks))
	out := make([]*bitset.Set, len(f.Blocks))
	for _, b := range f.Blocks {
		gen[b.ID] = bitset.New(ns)
		kill[b.ID] = bitset.New(ns)
		r.In[b.ID] = bitset.New(ns)
		out[b.ID] = bitset.New(ns)
	}

	// Per-block gen/kill: the last def of a register in the block
	// generates; every def kills all other sites of that register.
	for _, b := range f.Blocks {
		last := make(map[ir.Reg]int)
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg {
				last[d] = i
			}
		}
		for si, s := range r.Sites {
			if s.Block != b.ID {
				continue
			}
			li, ok := last[s.Reg]
			isLast := ok && (s.Index == li || (s.Index == -1 && false))
			if s.Index == -1 {
				// Entry pseudo-def generates only if block 0 has no
				// real def of the register.
				isLast = b.ID == 0 && !ok
			}
			if isLast {
				gen[b.ID].Add(si)
			}
			// Kill every other site of the same register.
			if s.Index >= 0 || b.ID == 0 {
				for _, other := range r.ByReg[s.Reg] {
					if other != si {
						kill[b.ID].Add(other)
					}
				}
			}
		}
	}

	// Entry pseudo-defs reach block 0's entry.
	for si, s := range r.Sites {
		if s.Index == -1 {
			r.In[0].Add(si)
		}
	}

	tmp := bitset.New(ns)
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			in := r.In[b.ID]
			for _, p := range b.Preds {
				if in.Union(out[p]) {
					changed = true
				}
			}
			// out = gen ∪ (in − kill)
			tmp.CopyFrom(in)
			tmp.Subtract(kill[b.ID])
			tmp.Union(gen[b.ID])
			if !tmp.Equal(out[b.ID]) {
				out[b.ID].CopyFrom(tmp)
				changed = true
			}
		}
	}
	return r
}

func (r *reaching) addSite(s defSite) {
	idx := len(r.Sites)
	r.Sites = append(r.Sites, s)
	r.ByReg[s.Reg] = append(r.ByReg[s.Reg], idx)
}

// walkUses traverses block b forward, maintaining the set of def
// sites that reach each instruction. For every register use it calls
// visit with the indices (into Sites) of the defs of that register
// that reach the use. The slice passed to visit is reused.
func (r *reaching) walkUses(f *ir.Func, b *ir.Block, visit func(i int, in *ir.Instr, use ir.Reg, reachingDefs []int)) {
	cur := r.In[b.ID].Copy()
	var ubuf []ir.Reg
	var dbuf []int
	for i := range b.Instrs {
		in := &b.Instrs[i]
		ubuf = in.AppendUses(ubuf[:0])
		for _, u := range ubuf {
			dbuf = dbuf[:0]
			for _, si := range r.ByReg[u] {
				if cur.Has(si) {
					dbuf = append(dbuf, si)
				}
			}
			visit(i, in, u, dbuf)
		}
		if d := in.Def(); d != ir.NoReg {
			for _, si := range r.ByReg[d] {
				cur.Remove(si)
			}
			// Find this instruction's own site and add it.
			for _, si := range r.ByReg[d] {
				s := r.Sites[si]
				if s.Block == b.ID && s.Index == i {
					cur.Add(si)
					break
				}
			}
		}
	}
}

func TestReachingDefsAndWalkUses(t *testing.T) {
	// b0: x=1 ; brif -> b1 b2
	// b1: x=2 ; br b3
	// b2: br b3 (x=1 flows through)
	// b3: y=x ; ret
	f := &ir.Func{Name: "R"}
	x := f.NewReg(ir.ClassInt)
	y := f.NewReg(ir.ClassInt)
	c := f.NewReg(ir.ClassInt)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	b0.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: c, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg},
		{Op: ir.OpConst, Dst: x, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1},
		{Op: ir.OpBrIf, Dst: ir.NoReg, A: c, B: c, C: ir.NoReg, Cmp: ir.CmpEQ},
	}
	b0.Succs = []int{1, 2}
	b1.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: x, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 2},
		{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg},
	}
	b1.Succs = []int{3}
	b2.Instrs = []ir.Instr{{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}}
	b2.Succs = []int{3}
	b3.Instrs = []ir.Instr{
		{Op: ir.OpMove, Dst: y, A: x, B: ir.NoReg, C: ir.NoReg},
		{Op: ir.OpRet, Dst: ir.NoReg, A: y, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()

	r := computeReaching(f)
	// The use of x in b3 must see BOTH defs (b0 and b1).
	sawUseOfX := 0
	r.walkUses(f, f.Blocks[3], func(i int, in *ir.Instr, use ir.Reg, ds []int) {
		if use == x {
			sawUseOfX++
			if len(ds) != 2 {
				t.Fatalf("use of x reached by %d defs, want 2", len(ds))
			}
			for _, si := range ds {
				if r.Sites[si].Reg != x {
					t.Fatal("reaching site for wrong register")
				}
			}
		}
	})
	if sawUseOfX != 1 {
		t.Fatalf("saw %d uses of x in b3", sawUseOfX)
	}
	// Inside b1, the use... there is none; but a use of x at b1's
	// entry would see only the b0 def. Verify via In sets: the b1
	// entry set must contain exactly one def of x.
	count := 0
	for _, si := range r.ByReg[x] {
		if r.In[1].Has(si) {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("defs of x reaching b1 entry = %d, want 1", count)
	}
}

// TestEntryPseudoDefs: a register read before any definition gets a
// fabricated entry def site so the reference always finds a web for a
// reachable read.
func TestEntryPseudoDefs(t *testing.T) {
	f := &ir.Func{Name: "U"}
	x := f.NewReg(ir.ClassInt)
	y := f.NewReg(ir.ClassInt)
	b := f.NewBlock()
	b.Instrs = []ir.Instr{
		{Op: ir.OpMove, Dst: y, A: x, B: ir.NoReg, C: ir.NoReg}, // x used, never defined
		{Op: ir.OpRet, Dst: ir.NoReg, A: y, B: ir.NoReg, C: ir.NoReg},
	}
	f.RecomputePreds()
	r := computeReaching(f)
	found := false
	for _, s := range r.Sites {
		if s.Reg == x && s.Index == -1 {
			found = true
		}
	}
	if !found {
		t.Fatal("no entry pseudo-def for the undefined register")
	}
	r.walkUses(f, f.Blocks[0], func(i int, in *ir.Instr, use ir.Reg, ds []int) {
		if use == x && len(ds) == 0 {
			t.Fatal("use of undefined register has no reaching def")
		}
	})
}
