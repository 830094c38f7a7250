package spill_test

import (
	"fmt"
	"reflect"
	"testing"

	"regalloc"
	"regalloc/internal/cfg"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ir"
	"regalloc/internal/liverange"
	"regalloc/internal/spill"
	"regalloc/internal/workloads"
)

// insertCodeRef is InsertCode as it was with a map of slots and a map
// of each instruction's reloads, kept as the reference the map-free
// version is checked against.
func insertCodeRef(f *ir.Func, spilled []ir.Reg) spill.Stats {
	var st spill.Stats
	slot := make(map[ir.Reg]int64, len(spilled))
	for _, r := range spilled {
		slot[r] = f.NewSlot()
		st.Slots++
	}

	for _, b := range f.Blocks {
		out := make([]ir.Instr, 0, len(b.Instrs))
		for i := range b.Instrs {
			in := b.Instrs[i]

			var reloaded map[ir.Reg]ir.Reg
			reload := func(u ir.Reg) ir.Reg {
				if u == ir.NoReg {
					return u
				}
				s, isSpilled := slot[u]
				if !isSpilled {
					return u
				}
				if t, ok := reloaded[u]; ok {
					return t
				}
				t := f.NewSpillTemp(f.RegClass(u))
				out = append(out, ir.Instr{Op: ir.OpSpillLoad, Dst: t, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: s})
				st.Loads++
				if reloaded == nil {
					reloaded = make(map[ir.Reg]ir.Reg, 2)
				}
				reloaded[u] = t
				return t
			}
			in.A = reload(in.A)
			in.B = reload(in.B)
			in.C = reload(in.C)
			for j, a := range in.Args {
				in.Args[j] = reload(a)
			}

			if d := in.Def(); d != ir.NoReg {
				if s, isSpilled := slot[d]; isSpilled {
					t := f.NewSpillTemp(f.RegClass(d))
					in.Dst = t
					out = append(out, in)
					out = append(out, ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, A: t, B: ir.NoReg, C: ir.NoReg, Imm: s})
					st.Stores++
					continue
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	return st
}

// insertCodeRematRef is InsertCodeRemat as it was with maps of slots,
// constants and each instruction's reloads, kept as a reference.
func insertCodeRematRef(f *ir.Func, spilled []ir.Reg, remat []bool, vals []spill.RematValue) spill.Stats {
	var st spill.Stats
	slot := make(map[ir.Reg]int64)
	rem := make(map[ir.Reg]spill.RematValue)
	for _, r := range spilled {
		if remat != nil && int(r) < len(remat) && remat[r] {
			rem[r] = vals[r]
			continue
		}
		slot[r] = f.NewSlot()
		st.Slots++
	}

	for _, b := range f.Blocks {
		out := make([]ir.Instr, 0, len(b.Instrs))
		for i := range b.Instrs {
			in := b.Instrs[i]

			var reloaded map[ir.Reg]ir.Reg
			reload := func(u ir.Reg) ir.Reg {
				if u == ir.NoReg {
					return u
				}
				if t, ok := reloaded[u]; ok {
					return t
				}
				if v, isRemat := rem[u]; isRemat {
					t := f.NewSpillTemp(v.Cls)
					out = append(out, ir.Instr{Op: ir.OpConst, Dst: t, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: v.Imm, FImm: v.FImm})
					st.Remats++
					if reloaded == nil {
						reloaded = make(map[ir.Reg]ir.Reg, 2)
					}
					reloaded[u] = t
					return t
				}
				s, isSpilled := slot[u]
				if !isSpilled {
					return u
				}
				t := f.NewSpillTemp(f.RegClass(u))
				out = append(out, ir.Instr{Op: ir.OpSpillLoad, Dst: t, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: s})
				st.Loads++
				if reloaded == nil {
					reloaded = make(map[ir.Reg]ir.Reg, 2)
				}
				reloaded[u] = t
				return t
			}
			in.A = reload(in.A)
			in.B = reload(in.B)
			in.C = reload(in.C)
			for j, a := range in.Args {
				in.Args[j] = reload(a)
			}

			if d := in.Def(); d != ir.NoReg {
				if _, isRemat := rem[d]; isRemat {
					// The definition is a constant load whose value
					// is recomputed at each use: drop it entirely.
					continue
				}
				if s, isSpilled := slot[d]; isSpilled {
					t := f.NewSpillTemp(f.RegClass(d))
					in.Dst = t
					out = append(out, in)
					out = append(out, ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, A: t, B: ir.NoReg, C: ir.NoReg, Imm: s})
					st.Stores++
					continue
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	return st
}

// insertCodeSplitRef is InsertCodeSplit as it was with maps of slots,
// per-loop references, subranges and each instruction's reloads, and
// every original block rewritten, kept as a reference.
func insertCodeSplitRef(f *ir.Func, spilled []ir.Reg, info *cfg.Info) spill.Stats {
	var st spill.Stats
	origBlocks := len(f.Blocks)

	slot := make(map[ir.Reg]int64, len(spilled))
	splittable := make(map[ir.Reg]bool, len(spilled))
	for _, r := range spilled {
		slot[r] = f.NewSlot()
		st.Slots++
		splittable[r] = f.RegFlags(r)&ir.FlagSplitTemp == 0
	}

	// innermost[b] = index into info.Loops of the smallest loop
	// containing block b, or -1.
	innermost := make([]int, origBlocks)
	for i := range innermost {
		innermost[i] = -1
	}
	for li, l := range info.Loops {
		for _, b := range l.Blocks {
			if innermost[b] == -1 || len(l.Blocks) < len(info.Loops[innermost[b]].Blocks) {
				innermost[b] = li
			}
		}
	}

	// Which loops define / use each spilled register?
	defsIn := make([]map[ir.Reg]bool, len(info.Loops))
	usesIn := make([]map[ir.Reg]bool, len(info.Loops))
	for li := range info.Loops {
		defsIn[li] = make(map[ir.Reg]bool)
		usesIn[li] = make(map[ir.Reg]bool)
	}
	var ubuf []ir.Reg
	for li, l := range info.Loops {
		for _, bid := range l.Blocks {
			b := f.Blocks[bid]
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if d := in.Def(); d != ir.NoReg {
					if _, isSpilled := slot[d]; isSpilled {
						defsIn[li][d] = true
					}
				}
				ubuf = in.AppendUses(ubuf[:0])
				for _, u := range ubuf {
					if _, isSpilled := slot[u]; isSpilled {
						usesIn[li][u] = true
					}
				}
			}
		}
	}

	// Decide the split temps: (innermost loop, reg) pairs where the
	// loop uses but does not define the register.
	type key struct {
		loop int
		reg  ir.Reg
	}
	temp := make(map[key]ir.Reg)
	var preheader []*ir.Block // by loop index; nil = none yet
	preheader = make([]*ir.Block, len(info.Loops))
	for li, l := range info.Loops {
		for _, r := range spilled {
			if !splittable[r] || !usesIn[li][r] || defsIn[li][r] {
				continue
			}
			// Only split at the *innermost* level: the use sites
			// choose their own innermost loop, so create the temp
			// only if some use's innermost loop is this one.
			used := false
			for _, bid := range l.Blocks {
				if innermost[bid] != li {
					continue
				}
				b := f.Blocks[bid]
				for i := range b.Instrs {
					ubuf = b.Instrs[i].AppendUses(ubuf[:0])
					for _, u := range ubuf {
						if u == r {
							used = true
						}
					}
				}
			}
			if !used {
				continue
			}
			if preheader[li] == nil {
				preheader[li] = cfg.InsertPreheader(f, l)
			}
			t := f.NewReg(f.RegClass(r))
			f.SetRegFlags(t, f.RegFlags(r)|ir.FlagSplitTemp)
			temp[key{li, r}] = t
			// Load before the preheader's terminator.
			pre := preheader[li]
			term := pre.Instrs[len(pre.Instrs)-1]
			pre.Instrs = append(pre.Instrs[:len(pre.Instrs)-1],
				ir.Instr{Op: ir.OpSpillLoad, Dst: t, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: slot[r]},
				term)
			st.SplitLoads++
		}
	}

	// Rewrite the original blocks.
	for bid := 0; bid < origBlocks; bid++ {
		b := f.Blocks[bid]
		li := innermost[bid]
		out := make([]ir.Instr, 0, len(b.Instrs))
		for i := range b.Instrs {
			in := b.Instrs[i]

			var reloaded map[ir.Reg]ir.Reg
			reload := func(u ir.Reg) ir.Reg {
				if u == ir.NoReg {
					return u
				}
				s, isSpilled := slot[u]
				if !isSpilled {
					return u
				}
				if li >= 0 {
					if t, ok := temp[key{li, u}]; ok {
						return t
					}
				}
				if t, ok := reloaded[u]; ok {
					return t
				}
				t := f.NewSpillTemp(f.RegClass(u))
				out = append(out, ir.Instr{Op: ir.OpSpillLoad, Dst: t, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: s})
				st.Loads++
				if reloaded == nil {
					reloaded = make(map[ir.Reg]ir.Reg, 2)
				}
				reloaded[u] = t
				return t
			}
			in.A = reload(in.A)
			in.B = reload(in.B)
			in.C = reload(in.C)
			for j, a := range in.Args {
				in.Args[j] = reload(a)
			}

			if d := in.Def(); d != ir.NoReg {
				if s, isSpilled := slot[d]; isSpilled {
					t := f.NewSpillTemp(f.RegClass(d))
					in.Dst = t
					out = append(out, in)
					out = append(out, ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, A: t, B: ir.NoReg, C: ir.NoReg, Imm: s})
					st.Stores++
					continue
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	return st
}

// TestInsertCodeMatchesReference spills every second, third and
// seventh web of the suite's units and of 100 generated CFGs, listed
// from the highest register down so that slot order differs from
// register order, in each of the three modes, and requires the same
// instructions, temporaries, slots, blocks and Stats as the mode's
// reference. Remat takes its flags from spill.Remat of the webs, and
// split takes cfg.Analyze of each copy.
func TestInsertCodeMatchesReference(t *testing.T) {
	var fs []*ir.Func
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		prog, err := regalloc.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Program, err)
		}
		for _, r := range w.Routines {
			fs = append(fs, prog.Func(r))
		}
	}
	for seed := uint64(0); seed < 100; seed++ {
		prog, err := regalloc.Compile(fuzzgen.Generate(seed, fuzzgen.Config{}))
		if err != nil {
			t.Fatalf("fuzzgen seed %d: %v", seed, err)
		}
		fs = append(fs, prog.Func("FZ"))
	}
	type insert func(f *ir.Func, spilled []ir.Reg) spill.Stats
	modes := []struct {
		name      string
		got, want insert
	}{
		{"plain", spill.InsertCode, insertCodeRef},
		{"remat", func(f *ir.Func, spilled []ir.Reg) spill.Stats {
			ok, vals := spill.Remat(f)
			return spill.InsertCodeRemat(f, spilled, ok, vals)
		}, func(f *ir.Func, spilled []ir.Reg) spill.Stats {
			ok, vals := spill.Remat(f)
			return insertCodeRematRef(f, spilled, ok, vals)
		}},
		{"split", func(f *ir.Func, spilled []ir.Reg) spill.Stats {
			return spill.InsertCodeSplit(f, spilled, cfg.Analyze(f))
		}, func(f *ir.Func, spilled []ir.Reg) spill.Stats {
			return insertCodeSplitRef(f, spilled, cfg.Analyze(f))
		}},
	}
	var total spill.Stats
	checked := 0
	for _, src := range fs {
		webs := src.Clone()
		liverange.Renumber(webs)
		for _, every := range []int{2, 3, 7} {
			var spilled []ir.Reg
			for r := webs.NumRegs() - 1; r >= 0; r-- {
				if r%every == 0 {
					spilled = append(spilled, ir.Reg(r))
				}
			}
			for _, m := range modes {
				got, want := webs.Clone(), webs.Clone()
				gst := m.got(got, spilled)
				wst := m.want(want, spilled)
				if err := sameFunc(got, want); err != nil || gst != wst {
					t.Fatalf("%s, every %d, %s: stats %+v, reference %+v: %v", src.Name, every, m.name, gst, wst, err)
				}
				total.Remats += gst.Remats
				total.SplitLoads += gst.SplitLoads
				checked++
			}
		}
	}
	t.Logf("%d insertions checked: %d constants recomputed, %d subranges loaded", checked, total.Remats, total.SplitLoads)
	if total.Remats == 0 || total.SplitLoads == 0 {
		t.Fatal("no constant recomputed or no subrange loaded; the remat or split checks checked nothing of their own")
	}
}

// sameFunc reports the first way a and b differ in their registers,
// slots, blocks or instructions.
func sameFunc(a, b *ir.Func) error {
	if a.NumRegs() != b.NumRegs() || a.NumSlots != b.NumSlots || len(a.Blocks) != len(b.Blocks) {
		return fmt.Errorf("%d registers, %d slots and %d blocks, reference %d, %d and %d",
			a.NumRegs(), a.NumSlots, len(a.Blocks), b.NumRegs(), b.NumSlots, len(b.Blocks))
	}
	for r := ir.Reg(0); int(r) < a.NumRegs(); r++ {
		if a.RegClass(r) != b.RegClass(r) || a.RegFlags(r) != b.RegFlags(r) {
			return fmt.Errorf("v%d: class %s flags %d, reference %s %d", r, a.RegClass(r), a.RegFlags(r), b.RegClass(r), b.RegFlags(r))
		}
	}
	for i, blk := range a.Blocks {
		if !reflect.DeepEqual(blk.Instrs, b.Blocks[i].Instrs) || !reflect.DeepEqual(blk.Succs, b.Blocks[i].Succs) {
			return fmt.Errorf("b%d: instructions or successors differ", i)
		}
	}
	return nil
}
