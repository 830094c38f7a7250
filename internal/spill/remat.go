package spill

import "regalloc/internal/ir"

// Rematerialization implements the refinement Chaitin's papers
// describe for "never-killed" values (the paper's footnote 3 points
// at these refinements): a live range whose every definition loads
// the same constant need not be stored to memory and reloaded — the
// constant can simply be recomputed before each use. Such ranges are
// cheaper to spill (no stores, and a constant load is cheaper than a
// memory load), which changes both the cost estimate and the
// inserted code.

// RematValue describes how to recompute a rematerializable range.
type RematValue struct {
	Cls  ir.Class
	Imm  int64
	FImm float64
}

// Remat returns, for each register of f, whether the range is
// rematerializable and with what value. A range qualifies when all
// of its definitions are OpConst instructions producing the same
// constant.
func Remat(f *ir.Func) ([]bool, []RematValue) {
	ok := make([]bool, f.NumRegs())
	vals := make([]RematValue, f.NumRegs())
	seen := make([]bool, f.NumRegs())
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			d := in.Def()
			if d == ir.NoReg {
				continue
			}
			v := RematValue{Cls: f.RegClass(d), Imm: in.Imm, FImm: in.FImm}
			switch {
			case in.Op != ir.OpConst:
				ok[d] = false
				seen[d] = true
			case !seen[d]:
				ok[d] = true
				vals[d] = v
				seen[d] = true
			case ok[d] && vals[d] != v:
				ok[d] = false
			}
		}
	}
	// A register never defined (entry pseudo-def) is not
	// rematerializable.
	for r := range ok {
		if !seen[r] {
			ok[r] = false
		}
	}
	return ok, vals
}

// CostsRemat is Costs with rematerialization awareness: a
// rematerializable range pays nothing at its definitions (no store
// is needed) and only a 1-cycle constant load per use. With nil flags
// it is Costs.
func CostsRemat(f *ir.Func, p CostParams, remat []bool) []float64 {
	costs := Costs(f, p)
	if remat == nil {
		return costs
	}
	// Recompute the rematerializable entries from scratch — but a
	// spill temporary keeps its infinite cost even when it happens
	// to hold a constant: re-spilling a one-use reload/recompute
	// temp would regenerate the identical range forever.
	cheapen := func(r int) bool {
		return r < len(remat) && remat[r] && f.RegFlags(ir.Reg(r))&ir.FlagSpillTemp == 0
	}
	for r := range costs {
		if cheapen(r) {
			costs[r] = 0
		}
	}
	var ubuf []ir.Reg
	for _, b := range f.Blocks {
		w := pow(p.DepthBase, b.Depth)
		for i := range b.Instrs {
			ubuf = b.Instrs[i].AppendUses(ubuf[:0])
			for _, u := range ubuf {
				if cheapen(int(u)) {
					costs[u] += w // one const instruction per use
				}
			}
		}
	}
	return costs
}

func pow(base float64, n int) float64 {
	v := 1.0
	for ; n > 0; n-- {
		v *= base
	}
	return v
}

// InsertCodeRemat is InsertCode, except that a register of spilled
// that remat flags gets no slot and no stores: each use recomputes
// its constant, vals[r], into a fresh temporary, and its definitions,
// constant loads all, are dropped. With nil flags it is InsertCode.
func InsertCodeRemat(f *ir.Func, spilled []ir.Reg, remat []bool, vals []RematValue) Stats {
	home, st := homes(f, spilled, remat)
	rewrite(f, f.Blocks, home, vals, nil, &st)
	return st
}
