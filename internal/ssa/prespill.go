package ssa

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"regalloc/internal/bitset"
	"regalloc/internal/color"
	"regalloc/internal/dataflow"
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
// coloring runs. A round solves liveness and walks the program points
// once (selectSpills), picking at every over-pressure point the
// cheapest values that are live through it (a value an instruction
// itself reads or writes must be in a register there), and spills
// them everywhere with the Figure 4 cycle's rewrite
// (spill.InsertCode), after which a spilled value has no reference
// left, so no later round sees it live. Phi destinations spill by
// rewriting the phi into per-predecessor slot stores; phi arguments
// reload at the end of the feeding predecessor. The rounds build no
// graph: under SSA it is chordal, so MAXLIVE ≤ K alone means coloring
// in dominance order cannot run out of colors. A round that chooses
// nothing and is not stuck has found MAXLIVE ≤ K, since the walk's
// first over-budget point either chooses a value or is stuck.
//
// It returns that round's liveness and MAXLIVE (valid for the code as
// rewritten) and the per-round statistics. The liveness is the shared
// solver's with the phis as edge values ((*Func).liveness): its Out
// sets hold the phi arguments, and no block's In set holds the
// block's own phi destinations. An instruction needing more than K
// simultaneously-live operands of one class makes the pressure
// irreducible; that is reported as an error, as is failure to
// converge within maxPreSpillRounds.
func PreSpill(ctx context.Context, s *Func, k color.K, params spill.CostParams) (*dataflow.Liveness, [ir.NumClasses]int, []RoundStats, error) {
	f := s.F
	var rounds []RoundStats
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, [ir.NumClasses]int{}, rounds, fmt.Errorf("ssa: %s: cancelled before pre-spill round %d: %w", f.Name, round, err)
		}
		lv := s.liveness()
		costs := spill.Costs(f, params)
		chosen, stuck, maxLive := selectSpills(s, lv, k, costs)
		switch {
		case len(chosen) == 0 && stuck == "":
			return lv, maxLive, rounds, nil
		case round == maxPreSpillRounds:
			return nil, [ir.NumClasses]int{}, rounds, fmt.Errorf("ssa: %s: pre-spilling did not converge after %d rounds", f.Name, maxPreSpillRounds)
		case len(chosen) == 0:
			return nil, [ir.NumClasses]int{}, rounds, fmt.Errorf("ssa: %s: %s: %w", f.Name, stuck, ErrIrreducible)
		}
		rs := RoundStats{Spilled: len(chosen)}
		for _, r := range chosen {
			rs.SpillCost += costs[r]
		}
		rs.Loads, rs.Stores = insertSpillCode(s, chosen)
		rounds = append(rounds, rs)
	}
}

// selectSpills walks every program point with its live set under lv,
// starting each block from its Out set (In is not read) and adding
// the phi destinations itself at the block's entry. At points whose
// per-class pressure exceeds K, it greedily adds the cheapest
// spillable live-through values to the spill set until the point
// fits. Values already chosen count as removed at every later point
// of the walk. When some point stays over-pressure with no spillable
// candidate, the reason is reported via stuck. peak is the per-class
// pressure maximum of the values not yet chosen, which is MAXLIVE
// when nothing is; costs is read only over budget.
func selectSpills(s *Func, lv *dataflow.Liveness, k color.K, costs []float64) (chosen []ir.Reg, stuck string, peak [ir.NumClasses]int) {
	f := s.F
	nr := f.NumRegs()
	inSet := make([]bool, nr)

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
			f.RegFlags(ir.Reg(r))&ir.FlagSpillTemp == 0 && !math.IsInf(costs[r], 1)
	}

	// cheapestFirst spills the gathered candidates cands, cheapest
	// first (ties to the lower register), until need is covered, and
	// returns what it could not cover.
	var cands []int
	cheapestFirst := func(need int) int {
		sort.Slice(cands, func(i, j int) bool {
			if costs[cands[i]] != costs[cands[j]] {
				return costs[cands[i]] < costs[cands[j]]
			}
			return cands[i] < cands[j]
		})
		for _, r := range cands {
			if need <= 0 {
				break
			}
			inSet[r] = true
			chosen = append(chosen, ir.Reg(r))
			need--
		}
		return need
	}
	// reduce brings one over-pressure point down to the budget by
	// picking cheapest-first among live spillable values of class c,
	// returning the excess it could not cover.
	reduce := func(live *bitset.Set, c ir.Class, excess int) int {
		cands = cands[:0]
		live.ForEach(func(r int) {
			if classOf(r) == c && spillable(r) {
				cands = append(cands, r)
			}
		})
		return cheapestFirst(excess)
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
			peak[c] = max(peak[c], cnt[c])
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
					if classOf(d) == ir.Class(c) && !inSet[d] && f.RegFlags(phis[i].Dst)&ir.FlagSpillTemp == 0 {
						cands = append(cands, d)
					}
				}
				short[c] = cheapestFirst(short[c])
			}
		}
		return short
	}

	var ubuf []ir.Reg
	live := bitset.New(nr)
	for _, b := range f.Blocks {
		live.CopyFrom(lv.Out[b.ID])
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
	return chosen, stuck, peak
}

// insertSpillCode sends every chosen value to a fresh spill slot,
// everywhere, and returns the load and store counts. It writes only
// the code on phi edges: a spilled phi destination rewrites its phi
// away into a store in each predecessor, and a spilled phi argument
// reloads at the end of the feeding predecessor. That code goes in
// just before each predecessor's terminator. spill.InsertCode, the
// Figure 4 cycle's rewrite, does the rest (a store after the
// definition, a reload before each use) and numbers the slots in the
// order of chosen from f.NumSlots on, as the edge code already has.
// Its reloads for a terminator land between the edge code and the
// terminator, the order in which selectSpills counted the pressure.
func insertSpillCode(s *Func, chosen []ir.Reg) (loads, stores int) {
	f := s.F
	// slot[r] is r's slot plus one, and 0 for a register not chosen.
	slot := make([]int64, f.NumRegs())
	for i, r := range chosen {
		slot[r] = f.NumSlots + int64(i) + 1
	}
	spillLoad := func(t, r ir.Reg) ir.Instr {
		return ir.Instr{Op: ir.OpSpillLoad, Dst: t, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: slot[r] - 1}
	}
	spillStore := func(v, r ir.Reg) ir.Instr {
		return ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, A: v, B: ir.NoReg, C: ir.NoReg, Imm: slot[r] - 1}
	}

	// Rewrite the phi side table, queueing predecessor-end code. Phis
	// read in parallel before they write, so a load must precede any
	// store that overwrites the slot it reads — that can only happen
	// when a spilled value is both some phi's destination and another
	// phi's argument on the same edge, so only *those* loads are
	// hoisted to the front. Every other bounce pair emits
	// load-then-store adjacently: its temporary is live for just two
	// instructions, keeping the predecessor-end pressure down to one
	// transient temporary (plus the reloads that feed surviving phis,
	// which must reach the edge regardless and so go last).
	hoist := make([][]ir.Instr, len(f.Blocks))
	seq := make([][]ir.Instr, len(f.Blocks))
	tail := make([][]ir.Instr, len(f.Blocks))
	// stored[r] is b+1 when r is the spilled destination of a phi of
	// block b: the predecessors of b store to r's slot.
	stored := make([]int, f.NumRegs())
	for _, b := range f.Blocks {
		phis := s.Phis[b.ID]
		for i := range phis {
			if slot[phis[i].Dst] != 0 {
				stored[phis[i].Dst] = b.ID + 1
			}
		}
		kept := phis[:0]
		for i := range phis {
			ph := phis[i]
			dstSp := slot[ph.Dst] != 0
			for j, arg := range ph.Args {
				p := b.Preds[j]
				switch {
				case dstSp && slot[arg] != 0:
					// Slot-to-slot: bounce through a temporary.
					t := f.NewSpillTemp(f.RegClass(arg))
					if stored[arg] == b.ID+1 {
						hoist[p] = append(hoist[p], spillLoad(t, arg))
						seq[p] = append(seq[p], spillStore(t, ph.Dst))
					} else {
						seq[p] = append(seq[p], spillLoad(t, arg), spillStore(t, ph.Dst))
					}
					loads++
					stores++
				case dstSp:
					seq[p] = append(seq[p], spillStore(arg, ph.Dst))
					stores++
				case slot[arg] != 0:
					t := f.NewSpillTemp(f.RegClass(arg))
					if stored[arg] == b.ID+1 {
						hoist[p] = append(hoist[p], spillLoad(t, arg))
					} else {
						tail[p] = append(tail[p], spillLoad(t, arg))
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
	for _, b := range f.Blocks {
		if code := append(append(hoist[b.ID], seq[b.ID]...), tail[b.ID]...); len(code) > 0 {
			b.Instrs = slices.Insert(b.Instrs, len(b.Instrs)-1, code...)
		}
	}

	st := spill.InsertCode(f, chosen)
	return loads + st.Loads, stores + st.Stores
}
