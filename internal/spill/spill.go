// Package spill estimates spill costs and inserts spill code.
//
// Costs follow Chaitin as described in §2.1 of the paper: the cost
// of spilling a live range is the number of loads and stores that
// would have to be inserted, each weighted by 10^depth of its loop
// nesting depth (and by the machine's memory-op latency, so the
// numbers read as estimated cycles).
//
// Spilling a range r stores r to its slot after every definition and
// reloads it into a fresh temporary before every use. The fresh
// temporaries are minimal live ranges flagged FlagSpillTemp; they
// receive infinite cost so they are never chosen for spilling again,
// which (together with their tiny degree) is what makes the
// build–simplify–color–spill iteration converge.
//
// InsertCode, InsertCodeRemat and InsertCodeSplit run one rewrite and
// differ only in where a spilled register lives between its
// references: in a slot, nowhere (a constant recomputed before each
// use, under rematerialization), or, under splitting, in a loop
// subrange its preheader loads. Split alone adds blocks, so after it
// alone the next pass cannot carry the liveness (CarryLiveness).
package spill

import (
	"math"

	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
)

// CostParams tunes the cost estimator.
type CostParams struct {
	// DepthBase is the per-loop-level weight multiplier (paper: 10).
	DepthBase float64
	// MemOpWeight is the cycle cost of one load or store (the VM's
	// memory latency, 2).
	MemOpWeight float64
}

// DefaultCostParams returns the paper-faithful estimator settings.
func DefaultCostParams() CostParams {
	return CostParams{DepthBase: 10, MemOpWeight: 2}
}

// Costs computes the estimated spill cost of every register of f.
// Block depths must already be stamped (cfg.Analyze). Registers
// flagged as spill temporaries get +Inf.
func Costs(f *ir.Func, p CostParams) []float64 {
	costs := make([]float64, f.NumRegs())
	var ubuf []ir.Reg
	for _, b := range f.Blocks {
		w := p.MemOpWeight * math.Pow(p.DepthBase, float64(b.Depth))
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := in.Def(); d != ir.NoReg {
				costs[d] += w // a store after this definition
			}
			ubuf = in.AppendUses(ubuf[:0])
			for _, u := range ubuf {
				costs[u] += w // a load before this use
			}
		}
	}
	for r := 0; r < f.NumRegs(); r++ {
		if f.RegFlags(ir.Reg(r))&ir.FlagSpillTemp != 0 {
			costs[r] = math.Inf(1)
		}
	}
	return costs
}

// Stats reports the code inserted by InsertCode, InsertCodeRemat, or
// InsertCodeSplit.
type Stats struct {
	Loads      int
	Stores     int
	Slots      int
	Remats     int // constant recomputations replacing reloads
	SplitLoads int // preheader reloads shared by a whole loop
}

// Emit publishes the insertion totals as spill-phase counters on tr
// (no-op for a nil tracer), keeping the trace stream reconciled with
// the PassStats record.
func (s Stats) Emit(tr *obs.Tracer) {
	if !tr.Enabled() {
		return
	}
	tr.Counter(obs.PhaseSpill, "spill.loads", int64(s.Loads))
	tr.Counter(obs.PhaseSpill, "spill.stores", int64(s.Stores))
	tr.Counter(obs.PhaseSpill, "spill.slots", int64(s.Slots))
	tr.Counter(obs.PhaseSpill, "spill.remats", int64(s.Remats))
	tr.Counter(obs.PhaseSpill, "spill.split_loads", int64(s.SplitLoads))
}

// InsertCode rewrites f so that every register in spilled lives in
// memory: each definition is followed by a store to the range's
// slot, and each use reads a freshly reloaded temporary. Slots are
// numbered in the order of spilled, and temporaries in program order.
// Only the blocks that mention a spilled register get new
// instruction slices.
func InsertCode(f *ir.Func, spilled []ir.Reg) Stats {
	return InsertCodeRemat(f, spilled, nil, nil)
}

// rematerialized is the home of a spilled register that lives
// nowhere: each use recomputes its constant, and its definitions are
// dropped.
const rematerialized = -1

// homes gives each register of spilled its home, in a table by
// register that is 0 for every other register: rematerialized when
// remat flags it, otherwise a new slot plus one, numbered in the order
// of spilled.
func homes(f *ir.Func, spilled []ir.Reg, remat []bool) ([]int64, Stats) {
	var st Stats
	home := make([]int64, f.NumRegs())
	for _, r := range spilled {
		if int(r) < len(remat) && remat[r] {
			home[r] = rematerialized
			continue
		}
		home[r] = f.NewSlot() + 1
		st.Slots++
	}
	return home, st
}

// rewrite is the spill-code rewrite of all three modes, on blocks. A
// spilled register, one whose home is not 0, is reloaded from its slot
// into a fresh temporary before each instruction that reads it, or its
// constant, vals[r], is recomputed there; a definition of it writes a
// fresh temporary stored to the slot at once, or is dropped. held,
// when not nil, lists by block the loop subranges that already hold a
// spilled register there, which its reads take instead. Only the
// blocks that mention a spilled register get new instruction slices.
func rewrite(f *ir.Func, blocks []*ir.Block, home []int64, vals []RematValue, held [][][2]ir.Reg, st *Stats) {
	isSpilled := func(r ir.Reg) bool { return r != ir.NoReg && home[r] != 0 }

	// reloaded pairs each spilled register the instruction at hand
	// reads with the temporary that holds it: a loop subrange, or one
	// loaded or recomputed just before the instruction. An instruction
	// reads at most a few registers, so a linear scan finds a repeat.
	var reloaded [][2]ir.Reg
	var out []ir.Instr
	reload := func(u ir.Reg) ir.Reg {
		if !isSpilled(u) {
			return u
		}
		for _, p := range reloaded {
			if p[0] == u {
				return p[1]
			}
		}
		t := f.NewSpillTemp(f.RegClass(u))
		ld := ir.Instr{Op: ir.OpSpillLoad, Dst: t, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: home[u] - 1}
		if home[u] == rematerialized {
			ld.Op, ld.Imm, ld.FImm = ir.OpConst, vals[u].Imm, vals[u].FImm
			st.Remats++
		} else {
			st.Loads++
		}
		out = append(out, ld)
		reloaded = append(reloaded, [2]ir.Reg{u, t})
		return t
	}

	for bi, b := range blocks {
		// Each spilled operand adds at most one instruction: a
		// reload before, or a store after.
		extra := 0
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, r := range [...]ir.Reg{in.Def(), in.A, in.B, in.C} {
				if isSpilled(r) {
					extra++
				}
			}
			for _, a := range in.Args {
				if isSpilled(a) {
					extra++
				}
			}
		}
		if extra == 0 {
			continue
		}
		// The block's subranges stay at the front of reloaded for
		// each of its instructions.
		reloaded = reloaded[:0]
		if held != nil {
			reloaded = append(reloaded, held[bi]...)
		}
		subranges := len(reloaded)
		out = make([]ir.Instr, 0, len(b.Instrs)+extra)
		for i := range b.Instrs {
			in := b.Instrs[i]

			// Reload each distinct spilled register the instruction
			// uses, then rewrite the operands to the temporaries.
			reloaded = reloaded[:subranges]
			in.A = reload(in.A)
			in.B = reload(in.B)
			in.C = reload(in.C)
			for j, a := range in.Args {
				in.Args[j] = reload(a)
			}

			// A spilled definition writes a fresh temporary and
			// stores it immediately, or, as a constant recomputed
			// at each use, disappears.
			if d := in.Def(); isSpilled(d) {
				if home[d] == rematerialized {
					continue
				}
				t := f.NewSpillTemp(f.RegClass(d))
				in.Dst = t
				out = append(out, in)
				out = append(out, ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, A: t, B: ir.NoReg, C: ir.NoReg, Imm: home[d] - 1})
				st.Stores++
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
}

// CarryLiveness brings lv, the liveness of f before InsertCode or
// InsertCodeRemat rewrote it for spilled, up to date with the
// rewritten f by removing the spilled registers from every set, so the
// next Figure 4 pass need not solve liveness again. That is exact.
// Liveness is separable by register, and the rewrite changes the
// references of no register outside spilled: the definitions it drops
// are constant loads, which read nothing. A spilled register has no
// reference left, so it is live nowhere. Each temporary is defined and
// read within one block, by a reload or a recomputed constant just
// before its one read or by the definition a store follows at once,
// so it is live at no block boundary; the sets need not grow to cover
// the temporaries. InsertCodeSplit alone makes no such promise: its
// subranges live across blocks, and the preheaders it adds are blocks
// lv has no sets for.
func CarryLiveness(lv *dataflow.Liveness, spilled []ir.Reg) {
	for b := range lv.In {
		in, out := lv.In[b], lv.Out[b]
		for _, r := range spilled {
			in.Remove(int(r))
			out.Remove(int(r))
		}
	}
}
