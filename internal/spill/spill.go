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
	var st Stats
	// slot[r] is r's slot plus one, or 0 when r is not spilled.
	slot := make([]int64, f.NumRegs())
	for _, r := range spilled {
		slot[r] = f.NewSlot() + 1
		st.Slots++
	}
	isSpilled := func(r ir.Reg) bool { return r != ir.NoReg && slot[r] != 0 }

	// reloaded pairs each spilled register an instruction reads with
	// its temporary. An instruction reads at most a few registers, so
	// a linear scan finds a repeat.
	var reloaded [][2]ir.Reg
	for _, b := range f.Blocks {
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
		out := make([]ir.Instr, 0, len(b.Instrs)+extra)
		for i := range b.Instrs {
			in := b.Instrs[i]

			// Reload each distinct spilled register the instruction
			// uses, then rewrite the operands to the temporaries.
			reloaded = reloaded[:0]
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
				out = append(out, ir.Instr{Op: ir.OpSpillLoad, Dst: t, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: slot[u] - 1})
				st.Loads++
				reloaded = append(reloaded, [2]ir.Reg{u, t})
				return t
			}
			in.A = reload(in.A)
			in.B = reload(in.B)
			in.C = reload(in.C)
			for j, a := range in.Args {
				in.Args[j] = reload(a)
			}

			// A spilled definition writes a fresh temporary and
			// stores it immediately.
			if d := in.Def(); isSpilled(d) {
				t := f.NewSpillTemp(f.RegClass(d))
				in.Dst = t
				out = append(out, in)
				out = append(out, ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, A: t, B: ir.NoReg, C: ir.NoReg, Imm: slot[d] - 1})
				st.Stores++
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	return st
}

// CarryLiveness brings lv, the liveness of f before InsertCode(f,
// spilled) rewrote it, up to date with the rewritten f by removing the
// spilled registers from every set, so the next Figure 4 pass need
// not solve liveness again. That is exact. Liveness is separable by
// register, and InsertCode changes the references of no register
// outside spilled. A spilled register has no reference left, so it is
// live nowhere. Each temporary is defined and read within one block,
// by a reload just before its one read or by the definition a store
// follows at once, so it is live at no block boundary; the sets need
// not grow to cover the temporaries. InsertCodeSplit and
// InsertCodeRemat make no such promise.
func CarryLiveness(lv *dataflow.Liveness, spilled []ir.Reg) {
	for b := range lv.In {
		in, out := lv.In[b], lv.Out[b]
		for _, r := range spilled {
			in.Remove(int(r))
			out.Remove(int(r))
		}
	}
}
