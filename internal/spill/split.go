package spill

import (
	"regalloc/internal/cfg"
	"regalloc/internal/ir"
)

// Live-range splitting — the direction the paper's §4 names as
// future work ("We may also explore live range splitting as a means
// for improving the overall allocation"), made concrete in the
// simplest profitable form: when a spilled range is *used* inside a
// loop it is not *defined* in, reload it once in the loop's
// preheader into a fresh loop-long subrange instead of reloading
// before every use. Definitions still store to the home slot
// immediately (so the slot is always current and any mix of split
// and everywhere references stays coherent); uses outside loops, or
// in loops that also define the range, fall back to per-use
// reloads.
//
// The subranges are flagged FlagSplitTemp: they carry ordinary spill
// costs and may be spilled again, but a re-spill uses the
// everywhere strategy — re-splitting would recreate the identical
// range and never converge.

// InsertCodeSplit rewrites f so every register in spilled lives in
// memory, using loop-preheader reloads where profitable. info must
// be the analysis of f *before* this call (the rewrite inserts
// preheader blocks).
func InsertCodeSplit(f *ir.Func, spilled []ir.Reg, info *cfg.Info) Stats {
	var st Stats
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
