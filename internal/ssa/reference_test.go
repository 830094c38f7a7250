package ssa

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"regalloc/internal/asm"
	"regalloc/internal/color"
	"regalloc/internal/ir"
	"regalloc/internal/spill"
	"regalloc/internal/target"
)

// insertSpillCodeRef is insertSpillCode as it was before it handed
// the instructions to spill.InsertCode: one walk with maps of slots
// and reloads that keeps a spilled definition and stores it, and
// splices the phi-edge code in ahead of each terminator's reloads.
// It sends every chosen value to a fresh spill slot, everywhere: a
// store after its (unique) definition, a reload into a fresh
// temporary before each use. Phi destinations rewrite the phi away
// into per-predecessor stores; phi arguments reload at the end of the
// feeding predecessor. Returns the load and store counts.
func insertSpillCodeRef(s *Func, chosen []ir.Reg) (loads, stores int) {
	f := s.F
	slot := make(map[ir.Reg]int64, len(chosen))
	for _, r := range chosen {
		slot[r] = f.NewSlot()
	}
	spilled := func(r ir.Reg) bool {
		_, ok := slot[r]
		return ok
	}

	// Phase 1: rewrite the phi side table, queueing predecessor-end
	// code. Phis read in parallel before they write, so a load must
	// precede any store that overwrites the slot it reads — that can
	// only happen when a spilled value is both some phi's destination
	// and another phi's argument on the same edge, so only *those*
	// loads are hoisted to the front. Every other bounce pair emits
	// load-then-store adjacently: its temporary is live for just two
	// instructions, keeping the predecessor-end pressure down to one
	// transient temporary (plus the reloads that feed surviving phis,
	// which must reach the edge regardless and so go last).
	hoist := make([][]ir.Instr, len(f.Blocks))
	seq := make([][]ir.Instr, len(f.Blocks))
	tail := make([][]ir.Instr, len(f.Blocks))
	for _, b := range f.Blocks {
		phis := s.Phis[b.ID]
		if len(phis) == 0 {
			continue
		}
		storeSlots := make(map[int64]bool)
		for i := range phis {
			if spilled(phis[i].Dst) {
				storeSlots[slot[phis[i].Dst]] = true
			}
		}
		kept := phis[:0]
		for i := range phis {
			ph := phis[i]
			dstSp := spilled(ph.Dst)
			for j, arg := range ph.Args {
				p := b.Preds[j]
				cls := f.RegClass(arg)
				switch {
				case dstSp && spilled(arg):
					// Slot-to-slot: bounce through a temporary.
					t := f.NewSpillTemp(cls)
					ld := ir.Instr{Op: ir.OpSpillLoad, Dst: t, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: slot[arg]}
					st := ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, A: t, B: ir.NoReg, C: ir.NoReg, Imm: slot[ph.Dst]}
					if storeSlots[slot[arg]] {
						hoist[p] = append(hoist[p], ld)
						seq[p] = append(seq[p], st)
					} else {
						seq[p] = append(seq[p], ld, st)
					}
					loads++
					stores++
				case dstSp:
					seq[p] = append(seq[p],
						ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, A: arg, B: ir.NoReg, C: ir.NoReg, Imm: slot[ph.Dst]})
					stores++
				case spilled(arg):
					t := f.NewSpillTemp(cls)
					ld := ir.Instr{Op: ir.OpSpillLoad, Dst: t, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: slot[arg]}
					if storeSlots[slot[arg]] {
						hoist[p] = append(hoist[p], ld)
					} else {
						tail[p] = append(tail[p], ld)
					}
					loads++
					ph.Args[j] = t
				}
			}
			if !dstSp {
				kept = append(kept, ph)
			}
		}
		s.Phis[b.ID] = kept
	}
	atEnd := make([][]ir.Instr, len(f.Blocks))
	for i := range atEnd {
		atEnd[i] = append(append(hoist[i], seq[i]...), tail[i]...)
	}

	// Phase 2: rewrite instructions — reload before use, store after
	// definition — and splice the queued predecessor-end code in
	// front of each terminator.
	var ubuf []ir.Reg
	for _, b := range f.Blocks {
		out := make([]ir.Instr, 0, len(b.Instrs)+len(atEnd[b.ID]))
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Op.IsTerminator() {
				out = append(out, atEnd[b.ID]...)
			}
			var reloaded map[ir.Reg]ir.Reg
			reload := func(u ir.Reg) ir.Reg {
				if u == ir.NoReg || !spilled(u) {
					return u
				}
				if t, ok := reloaded[u]; ok {
					return t
				}
				t := f.NewSpillTemp(f.RegClass(u))
				out = append(out, ir.Instr{Op: ir.OpSpillLoad, Dst: t, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: slot[u]})
				loads++
				if reloaded == nil {
					reloaded = make(map[ir.Reg]ir.Reg, 2)
				}
				reloaded[u] = t
				return t
			}
			ubuf = in.AppendUses(ubuf[:0])
			if len(ubuf) > 0 {
				in.A = reload(in.A)
				in.B = reload(in.B)
				in.C = reload(in.C)
				for ai := range in.Args {
					in.Args[ai] = reload(in.Args[ai])
				}
			}
			out = append(out, in)
			if d := in.Def(); d != ir.NoReg && spilled(d) {
				out = append(out, ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, A: d, B: ir.NoReg, C: ir.NoReg, Imm: slot[d]})
				stores++
			}
		}
		b.Instrs = out
	}
	return loads, stores
}

// colorRef is Color as it was before it replayed the dominance order
// through color.SelectInto. It greedily assigns each definition, in dominance order, the
// lowest color unused by its already-colored interference
// neighbors. Dominance order is the reverse of a perfect elimination
// order of the chordal SSA interference graph, so this is optimal:
// it uses exactly MAXLIVE colors per class, and after pre-spilling
// (MAXLIVE ≤ K) it cannot fail. Registers that are never defined
// (pre-rename husks) keep color.NoColor; no instruction mentions
// them.
func colorRef(s *Func, a *Analysis, k color.K) ([]int16, error) {
	f := s.F
	colors := make([]int16, f.NumRegs())
	for i := range colors {
		colors[i] = color.NoColor
	}
	var used []bool
	for _, r := range a.Order {
		kn := k(f.RegClass(r))
		if cap(used) < kn {
			used = make([]bool, kn)
		}
		used = used[:kn]
		for i := range used {
			used[i] = false
		}
		for _, nb := range a.G.Neighbors(int32(r)) {
			if c := colors[nb]; c != color.NoColor && int(c) < kn {
				used[c] = true
			}
		}
		c := color.NoColor
		for j := 0; j < kn; j++ {
			if !used[j] {
				c = int16(j)
				break
			}
		}
		if c == color.NoColor {
			return nil, fmt.Errorf("ssa: %s: v%d found no free color among %d %s registers after pre-spilling",
				f.Name, r, kn, f.RegClass(r))
		}
		colors[r] = c
	}
	return colors, nil
}

// spillRound is what one pre-spill round chose and inserted.
type spillRound struct {
	chosen        []ir.Reg
	stuck         string
	loads, stores int
	slots         int64 // f.NumSlots after the round
}

// spillAndColor runs pre-spill, coloring and lowering by hand on a
// clone of f, as Allocate does, and returns every round and the
// lowered listing. With ref set it runs the reference bodies and the
// spilledEver guard they need: a register the reference spilled keeps
// its definition and the store after it, so no later round may choose
// it again. Giving those registers an infinite cost keeps them out of
// selectSpills's candidates, which is how the guard read there.
func spillAndColor(f *ir.Func, k color.K, m target.Machine, ref bool) ([]spillRound, string, error) {
	s, err := Construct(f.Clone())
	if err != nil {
		return nil, "", err
	}
	spilledEver := map[ir.Reg]bool{}
	var rounds []spillRound
	var a *Analysis
	for round := 0; ; round++ {
		a = Analyze(s)
		if a.MaxLive[ir.ClassInt] <= k(ir.ClassInt) && a.MaxLive[ir.ClassFloat] <= k(ir.ClassFloat) {
			break
		}
		if round == maxPreSpillRounds {
			return rounds, "", fmt.Errorf("no convergence")
		}
		costs := spill.Costs(s.F, spill.DefaultCostParams())
		if ref {
			for r := range spilledEver {
				costs[r] = math.Inf(1)
			}
		}
		var rd spillRound
		rd.chosen, rd.stuck = selectSpills(s, a, k, costs)
		if len(rd.chosen) == 0 {
			return append(rounds, rd), "", ErrIrreducible
		}
		if ref {
			for _, r := range rd.chosen {
				spilledEver[r] = true
			}
			rd.loads, rd.stores = insertSpillCodeRef(s, rd.chosen)
		} else {
			rd.loads, rd.stores = insertSpillCode(s, rd.chosen)
		}
		rd.slots = s.F.NumSlots
		rounds = append(rounds, rd)
	}
	var colors []int16
	if ref {
		colors, err = colorRef(s, a, k)
	} else {
		colors, err = Color(s, a, k)
	}
	if err != nil {
		return rounds, "", err
	}
	colors, _, err = Lower(s, a, colors, k)
	if err != nil {
		return rounds, "", err
	}
	l, err := listing(s.F, colors, m)
	return rounds, l, err
}

// listing is asm.Lower's disassembly of an allocated function.
func listing(f *ir.Func, colors []int16, m target.Machine) (string, error) {
	af, err := asm.Lower(f, colors, m)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	asm.Fprint(&b, af)
	return b.String(), nil
}

// edgeFunc is a hand-built SSA function in which block 1 both feeds a
// phi of block 3 and ends in a conditional branch that reads v2, the
// destination of block 1's own phi. Spilling v2 puts two reloads of
// it in front of that one terminator: the edge code's, for block 3's
// phi, and the branch's own. Construct never makes this shape, since
// it splits the critical edge from block 1 to block 3, so only here
// does the order of the two show.
func edgeFunc() (*Func, ir.Reg) {
	f := &ir.Func{Name: "EDGE", HasRet: true}
	v0, v1, v2, v5, v6 := f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt), f.NewReg(ir.ClassInt)
	in := func(op ir.Op, dst, a, b ir.Reg, imm int64) ir.Instr {
		return ir.Instr{Op: op, Dst: dst, A: a, B: b, C: ir.NoReg, Imm: imm}
	}
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	b0.Instrs = []ir.Instr{in(ir.OpParam, v0, ir.NoReg, ir.NoReg, 0), in(ir.OpParam, v1, ir.NoReg, ir.NoReg, 1), in(ir.OpBrIf, ir.NoReg, v0, v1, 0)}
	b0.Succs = []int{1, 3}
	b1.Instrs = []ir.Instr{in(ir.OpBrIf, ir.NoReg, v2, v1, 0)}
	b1.Succs = []int{2, 3}
	b2.Instrs = []ir.Instr{in(ir.OpAdd, v5, v2, v1, 0), in(ir.OpBr, ir.NoReg, ir.NoReg, ir.NoReg, 0)}
	b2.Succs = []int{1}
	b3.Instrs = []ir.Instr{in(ir.OpRet, ir.NoReg, v6, ir.NoReg, 0)}
	f.RecomputePreds()
	return &Func{F: f, Phis: [][]Phi{nil, {{Var: v2, Dst: v2, Args: []ir.Reg{v0, v5}}}, nil, {{Var: v6, Dst: v6, Args: []ir.Reg{v0, v2}}}}}, v2
}

// TestSpillAndColorMatchReference holds ssa's pre-spill rounds and
// coloring, with the instructions spilled by spill.InsertCode and the
// colors chosen by color's select, to the reference bodies above on
// the suite and 100 generated programs at (16,8), (8,4), (6,4) and
// (4,4): every round must choose the same values for the same stuck
// reason and insert as many loads, stores and slots, and the final
// listing must be the same. Allocate itself must give that listing
// too. First, spilling edgeFunc's v2 must give the reference's code
// exactly, the edge code ahead of the branch's own reload.
func TestSpillAndColorMatchReference(t *testing.T) {
	got, v2 := edgeFunc()
	want, _ := edgeFunc()
	insertSpillCode(got, []ir.Reg{v2})
	insertSpillCodeRef(want, []ir.Reg{v2})
	for i, b := range got.F.Blocks {
		if !reflect.DeepEqual(b.Instrs, want.F.Blocks[i].Instrs) || !reflect.DeepEqual(got.Phis[i], want.Phis[i]) {
			t.Fatalf("EDGE, b%d: spill code %v, phis %v; reference %v, %v", i, b.Instrs, got.Phis[i], want.F.Blocks[i].Instrs, want.Phis[i])
		}
	}

	names, fns := roundUnits(t)
	allocs, spilling := 0, 0
	for _, kk := range [][2]int{{16, 8}, {8, 4}, {6, 4}, {4, 4}} {
		kk := kk
		k := color.K(func(c ir.Class) int { return kk[c] })
		m := target.Machine{Name: "test", NumGPR: kk[0], NumFPR: kk[1]}
		for i, f := range fns {
			label := fmt.Sprintf("%s at %v", names[i], kk)
			got, gotList, gotErr := spillAndColor(f, k, m, false)
			want, wantList, wantErr := spillAndColor(f, k, m, true)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d rounds, reference %d", label, len(got), len(want))
			}
			for r := range got {
				if !reflect.DeepEqual(got[r], want[r]) {
					t.Fatalf("%s, round %d: %+v, reference %+v", label, r, got[r], want[r])
				}
			}
			if gotList != wantList {
				t.Fatalf("%s: listing differs from the reference:\n%s\nreference:\n%s", label, gotList, wantList)
			}
			res, err := Allocate(context.Background(), f.Clone(), k, spill.DefaultCostParams(), nil)
			if (err == nil) != (gotErr == nil) {
				t.Fatalf("%s: Allocate error %v, by hand %v", label, err, gotErr)
			}
			if err == nil {
				if l, err := listing(res.Func, res.Colors, m); err != nil || l != gotList {
					t.Fatalf("%s: Allocate's listing differs from the pipeline run by hand (%v)", label, err)
				}
			}
			allocs++
			if len(got) > 0 {
				spilling++
			}
		}
	}
	t.Logf("%d allocations checked, %d of them spilling", allocs, spilling)
	if spilling == 0 {
		t.Fatal("no allocation spilled; the spill-code reference checked nothing")
	}
}
