package liverange_test

import (
	"fmt"
	"reflect"
	"testing"

	"regalloc"
	"regalloc/internal/dataflow"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ir"
	"regalloc/internal/liverange"
	"regalloc/internal/workloads"
)

type unit struct {
	prog    *regalloc.Program
	routine string
}

// units compiles every Figure 5 unit plus QSORT, and n generated CFGs.
func units(tb testing.TB, n int) []unit {
	var us []unit
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		prog, err := regalloc.Compile(w.Source)
		if err != nil {
			tb.Fatalf("%s: %v", w.Program, err)
		}
		for _, r := range w.Routines {
			us = append(us, unit{prog, r})
		}
	}
	for seed := uint64(0); seed < uint64(n); seed++ {
		prog, err := regalloc.Compile(fuzzgen.Generate(seed, fuzzgen.Config{}))
		if err != nil {
			tb.Fatalf("fuzzgen seed %d: %v", seed, err)
		}
		us = append(us, unit{prog, "FZ"})
	}
	return us
}

// diffReference renumbers a copy of before with the reaching-
// definitions reference and reports the first way after differs from
// it, or the first block where lv differs from after's liveness.
func diffReference(before, after *ir.Func, lv *dataflow.Liveness) error {
	ref := before.Clone()
	n := liverange.RenumberRef(ref)
	if after.NumRegs() != n {
		return fmt.Errorf("%d webs, reference %d", after.NumRegs(), n)
	}
	for r := ir.Reg(0); int(r) < n; r++ {
		if after.RegClass(r) != ref.RegClass(r) || after.RegFlags(r) != ref.RegFlags(r) {
			return fmt.Errorf("v%d: class %s flags %d, reference %s %d",
				r, after.RegClass(r), after.RegFlags(r), ref.RegClass(r), ref.RegFlags(r))
		}
	}
	if !reflect.DeepEqual(after.Params, ref.Params) {
		return fmt.Errorf("params %v, reference %v", after.Params, ref.Params)
	}
	for i, b := range after.Blocks {
		if !reflect.DeepEqual(b.Instrs, ref.Blocks[i].Instrs) {
			return fmt.Errorf("b%d instructions differ from the reference", i)
		}
	}
	want := dataflow.ComputeLiveness(after)
	for i := range after.Blocks {
		if !lv.In[i].Equal(want.In[i]) || !lv.Out[i].Equal(want.Out[i]) {
			return fmt.Errorf("b%d: returned liveness in %v out %v, recomputed in %v out %v",
				i, lv.In[i], lv.Out[i], want.In[i], want.Out[i])
		}
	}
	return nil
}

// TestRenumberMatchesReference checks the liveness-based Renumber
// against the reaching-definitions reference on the suite and 100
// generated CFGs as compiled, and on every renumbering the allocator
// performs on them under briggs, chaitin and irc at (16,8) and (8,4):
// the same instructions, params, register classes, flags and web
// count, and a returned liveness equal to a fresh one.
func TestRenumberMatchesReference(t *testing.T) {
	checked, wrong := 0, 0
	restore := liverange.CheckRenumbers(func(before, after *ir.Func, lv *dataflow.Liveness) {
		checked++
		if err := diffReference(before, after, lv); err != nil {
			if wrong++; wrong <= 5 {
				t.Errorf("%s, renumbering %d: %v", after.Name, checked, err)
			}
		}
	})
	defer restore()

	us := units(t, 100)
	for _, u := range us {
		liverange.Renumber(u.prog.Func(u.routine).Clone())
	}
	direct := checked
	for _, h := range []regalloc.Heuristic{regalloc.Briggs, regalloc.Chaitin, regalloc.IRC} {
		opt := regalloc.DefaultOptions()
		opt.Heuristic = h
		for _, k := range [][2]int{{16, 8}, {8, 4}} {
			opt.KInt, opt.KFloat = k[0], k[1]
			for _, u := range us {
				if _, err := u.prog.Allocate(u.routine, opt); err != nil {
					t.Fatalf("%s under %v at %v: %v", u.routine, h, k, err)
				}
			}
		}
	}
	t.Logf("%d renumberings checked: %d of compiled units, %d by the allocator", checked, direct, checked-direct)
	if wrong > 0 {
		t.Fatalf("%d of %d renumberings differ from the reference", wrong, checked)
	}
}

// TestEveryWebIsReferenced: a web is a register some instruction reads
// or defines. A register that nothing references, such as either end
// of a coalesced copy or a spilled range, must not come back from a
// renumbering as a web, where it would be an isolated node in the next
// graph. The test checks every renumbering of the suite and 100
// generated CFGs as compiled, and every renumbering the allocator
// performs on them under briggs, chaitin, irc and briggs with Split,
// at (16,8) and (8,4).
func TestEveryWebIsReferenced(t *testing.T) {
	checked, wrong := 0, 0
	restore := liverange.CheckRenumbers(func(_, after *ir.Func, _ *dataflow.Liveness) {
		checked++
		defs, uses := liverange.LiveRangeSizes(after)
		for r := range defs {
			if defs[r]+uses[r] == 0 {
				if wrong++; wrong <= 5 {
					t.Errorf("%s, renumbering %d: v%d of %d is neither read nor defined", after.Name, checked, r, after.NumRegs())
				}
				break
			}
		}
	})
	defer restore()

	us := units(t, 100)
	for _, u := range us {
		liverange.Renumber(u.prog.Func(u.routine).Clone())
	}
	for _, c := range []struct {
		h     regalloc.Heuristic
		split bool
	}{{regalloc.Briggs, false}, {regalloc.Chaitin, false}, {regalloc.IRC, false}, {regalloc.Briggs, true}} {
		opt := regalloc.DefaultOptions()
		opt.Heuristic = c.h
		opt.Split = c.split
		for _, k := range [][2]int{{16, 8}, {8, 4}} {
			opt.KInt, opt.KFloat = k[0], k[1]
			for _, u := range us {
				if _, err := u.prog.Allocate(u.routine, opt); err != nil {
					t.Fatalf("%s under %v (split %v) at %v: %v", u.routine, c.h, c.split, k, err)
				}
			}
		}
	}
	t.Logf("%d renumberings checked", checked)
	if wrong > 0 {
		t.Fatalf("%d of %d renumberings left a register nothing references", wrong, checked)
	}
}
