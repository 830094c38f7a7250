package opt

import (
	"regalloc/internal/cfg"
	"regalloc/internal/ir"
)

// licmRef is loop-invariant code motion as it was before LICM kept
// one analysis per unit: it re-runs cfg.Analyze after every hoist,
// rescans the loops innermost first from the start, and recounts
// definitions and builds its maps on every loop it examines. Past
// the hoist cap it leaves the last preheader's depth at zero, since
// no analysis runs after the last hoist.
func licmRef(f *ir.Func) int {
	hoisted := 0
	for pass := 0; pass < 512; pass++ {
		info := cfg.Analyze(f)
		loops := append([]cfg.Loop(nil), info.Loops...)
		for i := 1; i < len(loops); i++ {
			for j := i; j > 0 && info.Depth[loops[j].Header] > info.Depth[loops[j-1].Header]; j-- {
				loops[j], loops[j-1] = loops[j-1], loops[j]
			}
		}
		moved := 0
		for _, l := range loops {
			moved += hoistLoopRef(f, info, l)
			if moved > 0 {
				break
			}
		}
		hoisted += moved
		if moved == 0 {
			break
		}
	}
	return hoisted
}

func hoistLoopRef(f *ir.Func, info *cfg.Info, l cfg.Loop) int {
	inLoop := make(map[int]bool, len(l.Blocks))
	for _, b := range l.Blocks {
		inLoop[b] = true
	}
	definedIn := make(map[ir.Reg]bool)
	hasCall := false
	storedRegions := make(map[memRegion]bool)
	var exitSources []int
	for _, bid := range l.Blocks {
		b := f.Blocks[bid]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := in.Def(); d != ir.NoReg {
				definedIn[d] = true
			}
			switch in.Op {
			case ir.OpCall:
				hasCall = true
			case ir.OpStore, ir.OpSpillStore:
				storedRegions[accessRegion(f, in)] = true
			}
		}
		for _, s := range b.Succs {
			if !inLoop[s] {
				exitSources = append(exitSources, bid)
				break
			}
		}
	}
	defCount := countDefs(f)

	loadHoistable := func(bid int, in *ir.Instr) bool {
		if hasCall {
			return false
		}
		if storedRegions[accessRegion(f, in)] {
			return false
		}
		for _, es := range exitSources {
			if !info.Dominates(bid, es) {
				return false
			}
		}
		return true
	}

	var order []site
	chosen := make(map[site]bool)
	for changed := true; changed; {
		changed = false
		for _, bid := range l.Blocks {
			instrs := f.Blocks[bid].Instrs
			for i := range instrs {
				in := &instrs[i]
				d := in.Def()
				s := site{bid, i}
				if chosen[s] || d == ir.NoReg || defCount[d] != 1 {
					continue
				}
				switch {
				case pure(in.Op):
				case in.Op == ir.OpLoad:
					if !loadHoistable(bid, in) {
						continue
					}
				default:
					continue
				}
				if (in.A != ir.NoReg && definedIn[in.A]) ||
					(in.B != ir.NoReg && definedIn[in.B]) ||
					(in.C != ir.NoReg && definedIn[in.C]) {
					continue
				}
				chosen[s] = true
				order = append(order, s)
				delete(definedIn, d)
				changed = true
			}
		}
	}
	if len(order) == 0 {
		return 0
	}

	pre := insertPreheaderRef(f, inLoop, l.Header)
	var lifted []ir.Instr
	remove := make(map[int]map[int]bool)
	for _, s := range order {
		lifted = append(lifted, f.Blocks[s.block].Instrs[s.index])
		if remove[s.block] == nil {
			remove[s.block] = make(map[int]bool)
		}
		remove[s.block][s.index] = true
	}
	for bid, idxs := range remove {
		b := f.Blocks[bid]
		out := b.Instrs[:0]
		for i := range b.Instrs {
			if !idxs[i] {
				out = append(out, b.Instrs[i])
			}
		}
		b.Instrs = out
	}
	term := pre.Instrs[len(pre.Instrs)-1]
	pre.Instrs = append(pre.Instrs[:len(pre.Instrs)-1], lifted...)
	pre.Instrs = append(pre.Instrs, term)
	return len(lifted)
}

// insertPreheaderRef is cfg.InsertPreheader as it was, taking the
// loop as a membership map.
func insertPreheaderRef(f *ir.Func, inLoop map[int]bool, header int) *ir.Block {
	pre := f.NewBlock()
	pre.Instrs = []ir.Instr{{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}}
	pre.Succs = []int{header}
	for _, b := range f.Blocks {
		if b.ID == pre.ID || inLoop[b.ID] {
			continue
		}
		for si, s := range b.Succs {
			if s == header {
				b.Succs[si] = pre.ID
			}
		}
	}
	f.RecomputePreds()
	return pre
}
