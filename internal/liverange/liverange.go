// Package liverange implements Chaitin's "renumber" phase: it
// partitions each variable's definitions and uses into webs (maximal
// communities of def–use chains) and rewrites the function so each
// web occupies a distinct virtual register. Webs — not source
// variables — are the nodes of the interference graph, and after
// spill code is inserted the next renumbering naturally splits a
// spilled variable into the per-reference micro-ranges the paper
// describes (§3.3: "spilling a live range does not entirely remove
// it; it simply divides that live range into several shorter live
// ranges").
package liverange

import (
	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
)

// Renumber rewrites f in place so that every live range (web) has
// its own virtual register; afterwards f.NumRegs() is the number of
// webs. It returns the liveness of the rewritten function, so a
// caller that needs one computes none.
func Renumber(f *ir.Func) *dataflow.Liveness {
	lv, _ := RenumberWithLiveness(f, dataflow.ComputeLiveness(f))
	return lv
}

// RenumberWithLiveness is Renumber for a caller holding lv, the
// current liveness of f; it runs no dataflow analysis. lv is only
// read, so it still describes f as it was before the rewrite; its
// sets may be narrower than f's registers, as long as every register
// they leave out is live at no block boundary. split reports whether
// some register's references landed in more than one web.
//
// A web is a class of definitions under "reach a common use", closed
// transitively, and a use with no earlier definition in its block is
// reached by exactly the definitions reaching its block's entry. So
// the webs are the classes of a union-find over the definitions plus
// one entry point per (block, live-in register): each block's last
// definition of r — or, if it has none, its own entry point for r —
// joins the entry point for r of every successor that has r live-in.
// The entry block's entry point for r stands for the fabricated
// definition of a register read before any write. Only registers some
// instruction reads or defines get a web: a register live into no
// block and defined nowhere is dropped. Webs are numbered in order of
// their first definition: fabricated ones first, by register, then
// real ones in program order. An entry point no definition reaches (a
// read in unreachable code) gets a web of its own, numbered after
// those.
func RenumberWithLiveness(f *ir.Func, lv *dataflow.Liveness) (out *dataflow.Liveness, split bool) {
	var before *ir.Func
	if renumberObserver != nil {
		before = f.Clone()
	}
	nr := f.NumRegs()

	// Union-find elements, in this order: the entry points of every
	// block, each block's in register order, where the entry block's
	// double as its fabricated definitions; then the definitions,
	// appended in program order as the first walk meets them. regOf
	// records each element's register.
	entryBase := make([]int32, len(f.Blocks)+1)
	var regOf []ir.Reg
	for _, b := range f.Blocks {
		entryBase[b.ID] = int32(len(regOf))
		lv.In[b.ID].ForEach(func(r int) { regOf = append(regOf, ir.Reg(r)) })
	}
	firstDef := int32(len(regOf))
	entryBase[len(f.Blocks)] = firstDef
	parent := make([]int32, len(regOf), len(regOf)+f.NumInstrs())
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) { parent[find(a)] = find(b) }

	// cur[r] is the element holding r's value at the walk's current
	// point; at[r] says which block (and which walk) set it. Every
	// register live into a block or read in it before a write is set
	// on entry, so reading a value set in another block means lv is
	// not f's liveness.
	cur := make([]int32, nr)
	at := make([]int32, nr)
	stamp := int32(0)
	enter := func(b int, visit func(r int, e int32)) {
		e := entryBase[b]
		lv.In[b].ForEach(func(r int) {
			visit(r, e)
			e++
		})
	}
	setCur := func(r int, e int32) { cur[r], at[r] = e, stamp }
	live := func(r int) int32 {
		if at[r] != stamp {
			panic("liverange: liveness does not describe the function")
		}
		return cur[r]
	}

	// First walk: number the definitions and join each block's
	// outgoing values to its successors' entry points.
	for _, b := range f.Blocks {
		stamp++
		enter(b.ID, setCur)
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg {
				setCur(int(d), int32(len(parent)))
				parent = append(parent, int32(len(parent)))
				regOf = append(regOf, d)
			}
		}
		for _, s := range b.Succs {
			enter(s, func(r int, e int32) { union(live(r), e) })
		}
	}

	// Number the webs in the order the doc comment gives. A register
	// that already has a web when another of its webs is named has
	// split. Between the walks at is free, and at[r] == stamp marks
	// the registers that have a web.
	stamp++
	web := make([]ir.Reg, len(parent))
	for i := range web {
		web[i] = ir.NoReg
	}
	var cls []ir.Class
	var flags []ir.Flags
	name := func(e int32) {
		if root := find(e); web[root] == ir.NoReg {
			r := regOf[e]
			web[root] = ir.Reg(len(cls))
			cls = append(cls, f.RegClass(r))
			flags = append(flags, f.RegFlags(r))
			split = split || at[r] == stamp
			at[r] = stamp
		}
	}
	for e := entryBase[0]; e < entryBase[1]; e++ {
		name(e)
	}
	for e := firstDef; e < int32(len(parent)); e++ {
		name(e)
	}
	for e := entryBase[1]; e < firstDef; e++ {
		name(e)
	}
	for e := range web {
		web[e] = web[find(int32(e))]
	}

	// Second walk: rewrite every operand to its web, and rename the
	// live-in and live-out sets the same way.
	out = dataflow.NewLiveness(len(f.Blocks), len(cls))
	resolve := func(u ir.Reg) ir.Reg {
		if u == ir.NoReg {
			return ir.NoReg
		}
		return web[live(int(u))]
	}
	site := firstDef
	for _, b := range f.Blocks {
		stamp++
		in := out.In[b.ID]
		enter(b.ID, func(r int, e int32) {
			setCur(r, e)
			in.Add(int(web[e]))
		})
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			ins.A = resolve(ins.A)
			ins.B = resolve(ins.B)
			ins.C = resolve(ins.C)
			if ins.Op == ir.OpCall {
				for j, a := range ins.Args {
					ins.Args[j] = resolve(a)
				}
			}
			if d := ins.Def(); d != ir.NoReg {
				setCur(int(d), site)
				ins.Dst = web[site]
				site++
			}
		}
		o := out.Out[b.ID]
		lv.Out[b.ID].ForEach(func(r int) { o.Add(int(web[live(r)])) })
	}

	// Params refer to the webs of their OpParam definitions.
	remapParams(f)

	f.ResetRegs(cls, flags)
	if renumberObserver != nil {
		renumberObserver(before, f, out)
	}
	return out, split
}

// renumberObserver, when non-nil, sees every renumbering: a copy of
// the function before, the function after, and the liveness returned.
// Tests install it to check against a reference implementation.
var renumberObserver func(before, after *ir.Func, lv *dataflow.Liveness)

// remapParams repoints f.Params at the rewritten OpParam
// destinations.
func remapParams(f *ir.Func) {
	entry := f.Entry()
	for i := range entry.Instrs {
		in := &entry.Instrs[i]
		if in.Op != ir.OpParam {
			continue
		}
		f.Params[in.Imm] = in.Dst
	}
}

// LiveRangeSizes returns, for each register of f, the number of
// definition and use occurrences — a cheap proxy for range size used
// in tests and diagnostics.
func LiveRangeSizes(f *ir.Func) (defs, uses []int) {
	defs = make([]int, f.NumRegs())
	uses = make([]int, f.NumRegs())
	var ubuf []ir.Reg
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := in.Def(); d != ir.NoReg {
				defs[d]++
			}
			ubuf = in.AppendUses(ubuf[:0])
			for _, u := range ubuf {
				uses[u]++
			}
		}
	}
	return defs, uses
}
