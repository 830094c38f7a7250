package alloc

import (
	"fmt"

	"regalloc/internal/bitset"
	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
	"regalloc/internal/machine"
)

// VerifyAssignment independently checks a finished allocation: it
// recomputes liveness from scratch and confirms that no two
// simultaneously-live registers of the same class share a physical
// register. Unlike color.Verify — which checks that the assignment
// properly colors the *interference graph* — this checks the
// assignment against the *program*, so it also catches bugs in graph
// construction itself (a missed edge makes color.Verify pass and
// VerifyAssignment fail).
//
// The one permitted sharing mirrors the builder's move exception: at
// "dst = move src", dst may occupy src's register, because they hold
// the same value at that point.
func VerifyAssignment(f *ir.Func, colors []int16) error {
	_, err := verifyAssignment(f, colors)
	return err
}

// verifyAssignment is VerifyAssignment, returning the liveness it
// solved for a caller with more walks to make.
func verifyAssignment(f *ir.Func, colors []int16) (*dataflow.Liveness, error) {
	if len(colors) < f.NumRegs() {
		return nil, fmt.Errorf("verify: %s: %d colors for %d registers", f.Name, len(colors), f.NumRegs())
	}
	lv := dataflow.ComputeLiveness(f)
	var fail error
	lv.LiveAcross(f, func(b *ir.Block, i int, in *ir.Instr, liveAfter *bitset.Set) {
		if fail != nil {
			return
		}
		d := in.Def()
		if d == ir.NoReg {
			return
		}
		if colors[d] < 0 {
			fail = fmt.Errorf("verify: %s: b%d[%d]: defined register v%d has no color", f.Name, b.ID, i, d)
			return
		}
		moveSrc := ir.NoReg
		if in.IsMove() {
			moveSrc = in.A
		}
		liveAfter.ForEach(func(l int) {
			if fail != nil || ir.Reg(l) == d || ir.Reg(l) == moveSrc {
				return
			}
			if f.RegClass(ir.Reg(l)) != f.RegClass(d) {
				return
			}
			if colors[l] == colors[d] {
				fail = fmt.Errorf(
					"verify: %s: b%d[%d]: v%d and live v%d share %s register %d",
					f.Name, b.ID, i, d, l, f.RegClass(d), colors[d])
			}
		})
	})
	return lv, fail
}

// VerifyAssignmentMachine is VerifyAssignment plus the machine-model
// constraints: every color stays inside its class's register file,
// and no value live across a call occupies a caller-saved register
// (the callee is free to clobber it). Like VerifyAssignment it works
// from the program, not the graph, so it catches a missing clobber
// edge in graph construction as readily as a coloring bug. Both walks
// read one liveness solve.
func VerifyAssignmentMachine(f *ir.Func, colors []int16, m *machine.Model) error {
	lv, err := verifyAssignment(f, colors)
	if err != nil {
		return err
	}
	for r := 0; r < f.NumRegs(); r++ {
		c := colors[r]
		if c < 0 {
			continue // never defined; VerifyAssignment vetted the rest
		}
		if cls := f.RegClass(ir.Reg(r)); int(c) >= m.K(cls) {
			return fmt.Errorf("verify: %s: v%d colored %d, outside the %d-register %s file",
				f.Name, r, c, m.K(cls), cls)
		}
	}
	var fail error
	lv.LiveAcross(f, func(b *ir.Block, i int, in *ir.Instr, liveAfter *bitset.Set) {
		if fail != nil || in.Op != ir.OpCall {
			return
		}
		liveAfter.ForEach(func(l int) {
			if fail != nil || ir.Reg(l) == in.Dst {
				return
			}
			cls := f.RegClass(ir.Reg(l))
			if c := colors[l]; c >= 0 && m.IsCallerSaved(cls, c) {
				fail = fmt.Errorf(
					"verify: %s: b%d[%d]: v%d lives across the call in caller-saved %s register %d",
					f.Name, b.ID, i, l, cls, c)
			}
		})
	})
	return fail
}
