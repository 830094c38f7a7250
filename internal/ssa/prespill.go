package ssa

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"regalloc/internal/bitset"
	"regalloc/internal/color"
	"regalloc/internal/ir"
	"regalloc/internal/spill"
)

// ErrIrreducible reports pressure no spilling can lower: some single
// program point (typically a call's operand list) needs more
// simultaneously-live registers of one class than K provides. The
// Chaitin path reports the same situation as "a spill temporary must
// itself spill".
var ErrIrreducible = errors.New("register pressure is irreducible by spilling")

// PreSpill lowers register pressure below the color budget before
// coloring runs: while some class's MAXLIVE exceeds its K, the round
// picks — at every over-pressure program point — the cheapest values
// that are live through the point (a value an instruction itself
// reads or writes must be in a register there), and spills them
// everywhere. Phi destinations spill by rewriting the phi into
// per-predecessor slot stores; phi arguments reload at the end of
// the feeding predecessor. Because pressure afterwards is at most K
// at every point, the greedy dominance-order colorer cannot run out
// of colors.
//
// It returns the final Analysis (valid for the code as rewritten)
// and the per-round statistics. An instruction needing more than K
// simultaneously-live operands of one class makes the pressure
// irreducible; that is reported as an error, as is failure to
// converge within maxPreSpillRounds.
func PreSpill(ctx context.Context, s *Func, k color.K, params spill.CostParams) (*Analysis, []RoundStats, error) {
	f := s.F
	var rounds []RoundStats
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, rounds, fmt.Errorf("ssa: %s: cancelled before pre-spill round %d: %w", f.Name, round, err)
		}
		a := Analyze(s)
		over := false
		for c := 0; c < ir.NumClasses; c++ {
			if a.MaxLive[c] > k(ir.Class(c)) {
				over = true
			}
		}
		if !over {
			return a, rounds, nil
		}
		if round == maxPreSpillRounds {
			return nil, rounds, fmt.Errorf("ssa: %s: pre-spilling did not converge after %d rounds", f.Name, maxPreSpillRounds)
		}
		rs := RoundStats{
			MaxLiveInt:   a.MaxLive[ir.ClassInt],
			MaxLiveFloat: a.MaxLive[ir.ClassFloat],
		}
		costs := spill.Costs(f, params)
		chosen, stuck := selectSpills(s, a, k, costs)
		if len(chosen) == 0 {
			return nil, rounds, fmt.Errorf("ssa: %s: %s: %w", f.Name, stuck, ErrIrreducible)
		}
		for _, r := range chosen {
			rs.SpillCost += costs[r]
			s.spilledEver[r] = true
		}
		rs.Spilled = len(chosen)
		rs.Loads, rs.Stores = insertSpillCode(s, chosen)
		rounds = append(rounds, rs)
	}
}

// selectSpills walks every program point with its live set and, at
// points whose per-class pressure exceeds K, greedily adds the
// cheapest spillable live-through values to the spill set until the
// point fits. Values already chosen count as removed at every later
// point of the walk. When some point stays over-pressure with no
// spillable candidate, the reason is reported via stuck.
func selectSpills(s *Func, a *Analysis, k color.K, costs []float64) ([]ir.Reg, string) {
	f := s.F
	nr := f.NumRegs()
	inSet := make([]bool, nr)
	var chosen []ir.Reg
	stuck := ""

	// banned marks registers the current point cannot spill: the
	// instruction's own operands and definition. Stamp-based so each
	// point's marking is O(operands).
	banned := make([]int, nr)
	for i := range banned {
		banned[i] = -1
	}
	stamp := 0

	classOf := func(r int) ir.Class { return f.RegClass(ir.Reg(r)) }
	spillable := func(r int) bool {
		return banned[r] != stamp && !inSet[r] &&
			f.RegFlags(ir.Reg(r))&ir.FlagSpillTemp == 0 &&
			!s.spilledEver[ir.Reg(r)] && !math.IsInf(costs[r], 1)
	}

	// reduce brings one over-pressure point down to the budget by
	// picking cheapest-first among live spillable values of class c,
	// returning the excess it could not cover.
	var cands []int
	reduce := func(live *bitset.Set, c ir.Class, excess int) int {
		cands = cands[:0]
		live.ForEach(func(r int) {
			if classOf(r) == c && spillable(r) {
				cands = append(cands, r)
			}
		})
		sort.Slice(cands, func(i, j int) bool {
			if costs[cands[i]] != costs[cands[j]] {
				return costs[cands[i]] < costs[cands[j]]
			}
			return cands[i] < cands[j]
		})
		for _, r := range cands {
			if excess <= 0 {
				break
			}
			inSet[r] = true
			chosen = append(chosen, ir.Reg(r))
			excess--
		}
		return excess
	}
	check := func(live *bitset.Set) [ir.NumClasses]int {
		var short [ir.NumClasses]int
		var cnt [ir.NumClasses]int
		live.ForEach(func(r int) {
			if !inSet[r] {
				cnt[classOf(r)]++
			}
		})
		for c := 0; c < ir.NumClasses; c++ {
			if excess := cnt[c] - k(ir.Class(c)); excess > 0 {
				short[c] = reduce(live, ir.Class(c), excess)
			}
		}
		return short
	}
	// note records the first genuinely uncoverable point.
	note := func(short [ir.NumClasses]int) {
		for c := 0; c < ir.NumClasses; c++ {
			if short[c] > 0 && stuck == "" {
				stuck = fmt.Sprintf("%d %s registers cannot hold one program point's operands", k(ir.Class(c)), ir.Class(c))
			}
		}
	}
	// spillPhiDsts covers pressure a block-exit point cannot shed
	// itself: phi arguments are reads "at the edge", so spilling them
	// only swaps in an equally-live reload temporary — but spilling
	// the *destinations* of the successor's phis removes those phis
	// entirely, turning the simultaneous register arguments into
	// sequenced slot stores. Cheapest destinations first.
	spillPhiDsts := func(b *ir.Block, short [ir.NumClasses]int) [ir.NumClasses]int {
		for _, sid := range b.Succs {
			phis := s.Phis[sid]
			if len(phis) == 0 {
				continue
			}
			for c := 0; c < ir.NumClasses; c++ {
				if short[c] <= 0 {
					continue
				}
				cands = cands[:0]
				for i := range phis {
					d := int(phis[i].Dst)
					if classOf(d) == ir.Class(c) && !inSet[d] &&
						f.RegFlags(phis[i].Dst)&ir.FlagSpillTemp == 0 && !s.spilledEver[phis[i].Dst] {
						cands = append(cands, d)
					}
				}
				sort.Slice(cands, func(i, j int) bool {
					if costs[cands[i]] != costs[cands[j]] {
						return costs[cands[i]] < costs[cands[j]]
					}
					return cands[i] < cands[j]
				})
				for _, d := range cands {
					if short[c] <= 0 {
						break
					}
					inSet[d] = true
					chosen = append(chosen, ir.Reg(d))
					short[c]--
				}
			}
		}
		return short
	}

	var ubuf []ir.Reg
	live := bitset.New(nr)
	for _, b := range f.Blocks {
		live.CopyFrom(a.Live.Out[b.ID])
		// Block exit. Outgoing phi arguments are reads at the edge: a
		// spilled argument is replaced by a reload temporary at the
		// predecessor's end that is exactly as live, so spilling them
		// never helps this point — when live-through values alone
		// cannot cover the excess, spill the successor's phi
		// *destinations* instead, which dissolves those phis into
		// sequenced stores next round.
		stamp++
		note(spillPhiDsts(b, check(live)))
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			stamp++
			ubuf = in.AppendUses(ubuf[:0])
			for _, u := range ubuf {
				banned[u] = stamp
			}
			d := in.Def()
			if d != ir.NoReg {
				banned[d] = stamp
				if !live.Has(int(d)) {
					// The dead-definition point: d plus liveAfter.
					live.Add(int(d))
					note(check(live))
				}
				live.Remove(int(d))
			}
			for _, u := range ubuf {
				live.Add(int(u))
			}
			note(check(live))
		}
		// Block entry with the phi destinations defined. A phi
		// destination is spillable (the phi rewrites into stores),
		// so no ban applies here beyond the first instruction's — the
		// pressure here was already checked post-uses above, and phi
		// destinations only add to it.
		if phis := s.Phis[b.ID]; len(phis) > 0 {
			stamp++
			for i := range phis {
				live.Add(int(phis[i].Dst))
			}
			note(check(live))
		}
	}
	return chosen, stuck
}

// insertSpillCode sends every chosen value to a fresh spill slot,
// everywhere: a store after its (unique) definition, a reload into a
// fresh temporary before each use. Phi destinations rewrite the phi
// away into per-predecessor stores; phi arguments reload at the end
// of the feeding predecessor. Returns the load and store counts.
func insertSpillCode(s *Func, chosen []ir.Reg) (loads, stores int) {
	f := s.F
	slot := make(map[ir.Reg]int64, len(chosen))
	for _, r := range chosen {
		slot[r] = f.NewSlot()
	}
	spilled := func(r ir.Reg) bool {
		_, ok := slot[r]
		return ok
	}

	// Phase 1: rewrite the phi side table, queueing predecessor-end
	// code. Phis read in parallel before they write, so a load must
	// precede any store that overwrites the slot it reads — that can
	// only happen when a spilled value is both some phi's destination
	// and another phi's argument on the same edge, so only *those*
	// loads are hoisted to the front. Every other bounce pair emits
	// load-then-store adjacently: its temporary is live for just two
	// instructions, keeping the predecessor-end pressure down to one
	// transient temporary (plus the reloads that feed surviving phis,
	// which must reach the edge regardless and so go last).
	hoist := make([][]ir.Instr, len(f.Blocks))
	seq := make([][]ir.Instr, len(f.Blocks))
	tail := make([][]ir.Instr, len(f.Blocks))
	for _, b := range f.Blocks {
		phis := s.Phis[b.ID]
		if len(phis) == 0 {
			continue
		}
		storeSlots := make(map[int64]bool)
		for i := range phis {
			if spilled(phis[i].Dst) {
				storeSlots[slot[phis[i].Dst]] = true
			}
		}
		kept := phis[:0]
		for i := range phis {
			ph := phis[i]
			dstSp := spilled(ph.Dst)
			for j, arg := range ph.Args {
				p := b.Preds[j]
				cls := f.RegClass(arg)
				switch {
				case dstSp && spilled(arg):
					// Slot-to-slot: bounce through a temporary.
					t := f.NewSpillTemp(cls)
					ld := ir.Instr{Op: ir.OpSpillLoad, Dst: t, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: slot[arg]}
					st := ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, A: t, B: ir.NoReg, C: ir.NoReg, Imm: slot[ph.Dst]}
					if storeSlots[slot[arg]] {
						hoist[p] = append(hoist[p], ld)
						seq[p] = append(seq[p], st)
					} else {
						seq[p] = append(seq[p], ld, st)
					}
					loads++
					stores++
				case dstSp:
					seq[p] = append(seq[p],
						ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, A: arg, B: ir.NoReg, C: ir.NoReg, Imm: slot[ph.Dst]})
					stores++
				case spilled(arg):
					t := f.NewSpillTemp(cls)
					ld := ir.Instr{Op: ir.OpSpillLoad, Dst: t, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: slot[arg]}
					if storeSlots[slot[arg]] {
						hoist[p] = append(hoist[p], ld)
					} else {
						tail[p] = append(tail[p], ld)
					}
					loads++
					ph.Args[j] = t
				}
			}
			if !dstSp {
				kept = append(kept, ph)
			}
		}
		s.Phis[b.ID] = kept
	}
	atEnd := make([][]ir.Instr, len(f.Blocks))
	for i := range atEnd {
		atEnd[i] = append(append(hoist[i], seq[i]...), tail[i]...)
	}

	// Phase 2: rewrite instructions — reload before use, store after
	// definition — and splice the queued predecessor-end code in
	// front of each terminator.
	var ubuf []ir.Reg
	for _, b := range f.Blocks {
		out := make([]ir.Instr, 0, len(b.Instrs)+len(atEnd[b.ID]))
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Op.IsTerminator() {
				out = append(out, atEnd[b.ID]...)
			}
			var reloaded map[ir.Reg]ir.Reg
			reload := func(u ir.Reg) ir.Reg {
				if u == ir.NoReg || !spilled(u) {
					return u
				}
				if t, ok := reloaded[u]; ok {
					return t
				}
				t := f.NewSpillTemp(f.RegClass(u))
				out = append(out, ir.Instr{Op: ir.OpSpillLoad, Dst: t, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: slot[u]})
				loads++
				if reloaded == nil {
					reloaded = make(map[ir.Reg]ir.Reg, 2)
				}
				reloaded[u] = t
				return t
			}
			ubuf = in.AppendUses(ubuf[:0])
			if len(ubuf) > 0 {
				in.A = reload(in.A)
				in.B = reload(in.B)
				in.C = reload(in.C)
				for ai := range in.Args {
					in.Args[ai] = reload(in.Args[ai])
				}
			}
			out = append(out, in)
			if d := in.Def(); d != ir.NoReg && spilled(d) {
				out = append(out, ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, A: d, B: ir.NoReg, C: ir.NoReg, Imm: slot[d]})
				stores++
			}
		}
		b.Instrs = out
	}
	return loads, stores
}
