package ssa

import (
	"fmt"
	"reflect"
	"testing"

	"regalloc/internal/bitset"
	"regalloc/internal/cfg"
	"regalloc/internal/color"
	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
	"regalloc/internal/spill"
)

// computeLivenessRef is the phi-aware backward fixpoint this package
// solved with before it passed its phis to dataflow as edge values.
// Its In sets hold each block's phi destinations; the shared solver's
// do not, since they are defined in the block.
func computeLivenessRef(s *Func) *dataflow.Liveness {
	f := s.F
	n := len(f.Blocks)
	nr := f.NumRegs()
	lv := &dataflow.Liveness{In: make([]*bitset.Set, n), Out: make([]*bitset.Set, n)}

	use := make([]*bitset.Set, n)
	def := make([]*bitset.Set, n)
	phiDef := make([]*bitset.Set, n)
	// argsOut[p] lists the phi arguments flowing out of block p into
	// its successor's phis; fixed once the side table is fixed.
	argsOut := make([][]ir.Reg, n)

	var ubuf []ir.Reg
	for _, b := range f.Blocks {
		u := bitset.New(nr)
		d := bitset.New(nr)
		pd := bitset.New(nr)
		for _, ph := range s.Phis[b.ID] {
			pd.Add(int(ph.Dst))
			d.Add(int(ph.Dst))
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			ubuf = in.AppendUses(ubuf[:0])
			for _, r := range ubuf {
				if !d.Has(int(r)) {
					u.Add(int(r))
				}
			}
			if dst := in.Def(); dst != ir.NoReg {
				d.Add(int(dst))
			}
		}
		use[b.ID] = u
		def[b.ID] = d
		phiDef[b.ID] = pd
		lv.In[b.ID] = bitset.New(nr)
		lv.Out[b.ID] = bitset.New(nr)
	}
	for _, b := range f.Blocks {
		for j, p := range b.Preds {
			for _, ph := range s.Phis[b.ID] {
				if a := ph.Args[j]; a != ir.NoReg {
					argsOut[p] = append(argsOut[p], a)
				}
			}
		}
	}

	tmp := bitset.New(nr)
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := lv.Out[b.ID]
			for _, sid := range b.Succs {
				// live across the edge: the successor's live-in minus
				// its phi defs...
				tmp.CopyFrom(lv.In[sid])
				tmp.Subtract(phiDef[sid])
				if out.Union(tmp) {
					changed = true
				}
			}
			// ...plus the phi arguments this block feeds.
			for _, a := range argsOut[b.ID] {
				if !out.Has(int(a)) {
					out.Add(int(a))
					changed = true
				}
			}
			// in = phiDefs ∪ use ∪ (out − def)
			tmp.CopyFrom(out)
			tmp.Subtract(def[b.ID])
			tmp.Union(use[b.ID])
			tmp.Union(phiDef[b.ID])
			if !tmp.Equal(lv.In[b.ID]) {
				lv.In[b.ID].CopyFrom(tmp)
				changed = true
			}
		}
	}
	return lv
}

// sameLiveness reports the first way lv differs from ref, a solve of
// computeLivenessRef on s: every Out set must be equal, and every In
// set equal once the block's phi destinations are added to it.
func sameLiveness(s *Func, lv, ref *dataflow.Liveness) error {
	if len(lv.In) != len(ref.In) || len(lv.Out) != len(ref.Out) {
		return fmt.Errorf("%d/%d sets, reference %d/%d", len(lv.In), len(lv.Out), len(ref.In), len(ref.Out))
	}
	for b := range ref.Out {
		if !lv.Out[b].Equal(ref.Out[b]) {
			return fmt.Errorf("b%d: out %v, reference %v", b, lv.Out[b], ref.Out[b])
		}
		in := lv.In[b].Copy()
		for _, ph := range s.Phis[b] {
			if in.Has(int(ph.Dst)) {
				return fmt.Errorf("b%d: phi destination v%d is live in", b, ph.Dst)
			}
			in.Add(int(ph.Dst))
		}
		if !in.Equal(ref.In[b]) {
			return fmt.Errorf("b%d: in plus phi destinations %v, reference %v", b, in, ref.In[b])
		}
	}
	return nil
}

// TestPreSpillLivenessMatchesReference runs PreSpill's rounds by hand
// on the suite and 100 generated programs at (16,8), (8,4), (6,4) and
// (4,4), and holds every round's solve to computeLivenessRef.
func TestPreSpillLivenessMatchesReference(t *testing.T) {
	names, fns := roundUnits(t)
	params := spill.DefaultCostParams()
	solves, spilling := 0, 0
	for _, kk := range [][2]int{{16, 8}, {8, 4}, {6, 4}, {4, 4}} {
		kk := kk
		k := color.K(func(c ir.Class) int { return kk[c] })
		for i, f := range fns {
			label := fmt.Sprintf("%s at %v", names[i], kk)
			s, err := Construct(f.Clone())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for round := 0; round <= maxPreSpillRounds; round++ {
				lv := s.liveness()
				if err := sameLiveness(s, lv, computeLivenessRef(s)); err != nil {
					t.Fatalf("%s, round %d: %v", label, round, err)
				}
				solves++
				chosen, _, _ := selectSpills(s, lv, k, spill.Costs(s.F, params))
				if len(chosen) == 0 {
					break
				}
				spilling++
				insertSpillCode(s, chosen)
			}
		}
	}
	t.Logf("%d solves checked, %d of them before a spilling round", solves, spilling)
	if spilling == 0 {
		t.Fatal("no round spilled; only construction's liveness was checked")
	}
}

// TestConstructLivenessMatchesFresh runs Construct's steps by hand on
// the suite and 100 generated programs. The one solve taken before the
// zero definitions and edge splitting must give every dominance-
// frontier block the In set a fresh solve gives after them, and
// Construct must return what phi placement on the fresh solve builds.
func TestConstructLivenessMatchesFresh(t *testing.T) {
	names, fns := roundUnits(t)
	reads := 0
	for i, f := range fns {
		want, err := Construct(f.Clone())
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		g := f.Clone()
		pruneUnreachable(g)
		normalizeEntry(g)
		lv := dataflow.ComputeLiveness(g)
		s := &Func{F: g}
		s.ZeroDefs = insertZeroDefs(g, lv)
		s.SplitEdges = splitCriticalEdges(g)
		s.Info = cfg.Analyze(g)
		s.Kids = domChildren(s.Info)
		fresh := dataflow.ComputeLiveness(g)
		for _, ys := range frontiers(g, s.Info) {
			for _, y := range ys {
				if y == 0 || y >= len(lv.In) {
					t.Fatalf("%s: frontier block b%d is not an original block other than the entry", names[i], y)
				}
				if !lv.In[y].Equal(fresh.In[y]) {
					t.Fatalf("%s: b%d: in %v, fresh solve %v", names[i], y, lv.In[y], fresh.In[y])
				}
				reads++
			}
		}
		s.Phis = make([][]Phi, len(g.Blocks))
		insertPhis(s, fresh)
		if err := rename(s); err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if !reflect.DeepEqual(s, want) {
			t.Fatalf("%s: Construct differs from phi placement on a fresh solve", names[i])
		}
	}
	t.Logf("%d frontier-block In sets checked", reads)
	if reads == 0 {
		t.Fatal("no frontier block; the check read nothing")
	}
}
