package spill_test

import (
	"fmt"
	"reflect"
	"testing"

	"regalloc"
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

// TestInsertCodeMatchesReference spills every second, third and
// seventh web of the suite's units and of 100 generated CFGs, listed
// from the highest register down so that slot order differs from
// register order, with InsertCode and with the reference, and requires
// the same instructions, temporaries, slots and Stats.
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
			got, want := webs.Clone(), webs.Clone()
			gst := spill.InsertCode(got, spilled)
			wst := insertCodeRef(want, spilled)
			if err := sameFunc(got, want); err != nil || gst != wst {
				t.Fatalf("%s, every %d: stats %+v, reference %+v: %v", src.Name, every, gst, wst, err)
			}
			checked++
		}
	}
	t.Logf("%d insertions checked", checked)
}

// sameFunc reports the first way a and b differ in their registers,
// slots or instructions.
func sameFunc(a, b *ir.Func) error {
	if a.NumRegs() != b.NumRegs() || a.NumSlots != b.NumSlots {
		return fmt.Errorf("%d registers and %d slots, reference %d and %d", a.NumRegs(), a.NumSlots, b.NumRegs(), b.NumSlots)
	}
	for r := ir.Reg(0); int(r) < a.NumRegs(); r++ {
		if a.RegClass(r) != b.RegClass(r) || a.RegFlags(r) != b.RegFlags(r) {
			return fmt.Errorf("v%d: class %s flags %d, reference %s %d", r, a.RegClass(r), a.RegFlags(r), b.RegClass(r), b.RegFlags(r))
		}
	}
	for i, blk := range a.Blocks {
		if !reflect.DeepEqual(blk.Instrs, b.Blocks[i].Instrs) {
			return fmt.Errorf("b%d: instructions differ", i)
		}
	}
	return nil
}
