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
	home, st := homes(f, spilled, nil)
	blocks := f.Blocks // the preheaders are appended past these

	// innermost[b] = index into info.Loops of the smallest loop
	// containing block b, or -1.
	innermost := make([]int, len(blocks))
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

	// A loop gets a subrange of a spilled register when a block it is
	// the innermost loop of reads the register and none of its blocks
	// defines it. refs marks both for the loop at hand.
	const read, defined = 1, 2
	refs := make([]uint8, len(home))
	held := make([][][2]ir.Reg, len(blocks))
	var ubuf []ir.Reg
	for li, l := range info.Loops {
		for _, bid := range l.Blocks {
			for i := range blocks[bid].Instrs {
				in := &blocks[bid].Instrs[i]
				if d := in.Def(); d != ir.NoReg && home[d] != 0 {
					refs[d] |= defined
				}
				if innermost[bid] != li {
					continue
				}
				ubuf = in.AppendUses(ubuf[:0])
				for _, u := range ubuf {
					if home[u] != 0 {
						refs[u] |= read
					}
				}
			}
		}
		var pre *ir.Block
		var subranges [][2]ir.Reg
		for _, r := range spilled {
			if refs[r] != read || f.RegFlags(r)&ir.FlagSplitTemp != 0 {
				continue
			}
			if pre == nil {
				pre = cfg.InsertPreheader(f, l)
			}
			t := f.NewReg(f.RegClass(r))
			f.SetRegFlags(t, f.RegFlags(r)|ir.FlagSplitTemp)
			subranges = append(subranges, [2]ir.Reg{r, t})
			// Load before the preheader's terminator.
			term := pre.Instrs[len(pre.Instrs)-1]
			pre.Instrs = append(pre.Instrs[:len(pre.Instrs)-1],
				ir.Instr{Op: ir.OpSpillLoad, Dst: t, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: home[r] - 1},
				term)
			st.SplitLoads++
		}
		for _, r := range spilled {
			refs[r] = 0
		}
		for _, bid := range l.Blocks {
			if innermost[bid] == li {
				held[bid] = subranges
			}
		}
	}

	rewrite(f, blocks, home, nil, held, &st)
	return st
}
