package ssa

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"regalloc/internal/bitset"
	"regalloc/internal/color"
	"regalloc/internal/dataflow"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/irgen"
	"regalloc/internal/opt"
	"regalloc/internal/parser"
	"regalloc/internal/sem"
	"regalloc/internal/spill"
	"regalloc/internal/target"
	"regalloc/internal/workloads"
)

// selectSpillsMap is selectSpills as it was before its live set
// became a bitset: the set is a map whose keys every walk collects
// and sorts. It is the reference the bitset walk must choose the same
// spills as.
func selectSpillsMap(s *Func, a *Analysis, k color.K, costs []float64) ([]ir.Reg, string) {
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
			!math.IsInf(costs[r], 1)
	}

	// reduce brings one over-pressure point down to the budget by
	// picking cheapest-first among live spillable values of class c,
	// returning the excess it could not cover.
	var cands []int
	reduce := func(live liveSet, c ir.Class, excess int) int {
		cands = cands[:0]
		live.forEach(func(r int) {
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
	check := func(live liveSet) [ir.NumClasses]int {
		var short [ir.NumClasses]int
		var cnt [ir.NumClasses]int
		live.forEach(func(r int) {
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
						f.RegFlags(phis[i].Dst)&ir.FlagSpillTemp == 0 {
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
	for _, b := range f.Blocks {
		live := newLiveSet(a.Live.Out[b.ID])
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
				if !live.has(int(d)) {
					// The dead-definition point: d plus liveAfter.
					live.add(int(d))
					note(check(live))
				}
				live.remove(int(d))
			}
			for _, u := range ubuf {
				live.add(int(u))
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
				live.add(int(phis[i].Dst))
			}
			note(check(live))
		}
	}
	return chosen, stuck
}

// liveSet pairs a bitset walk with membership bookkeeping; a thin
// wrapper so selectSpillsMap reads naturally.
type liveSet struct{ bits map[int]bool }

func newLiveSet(src interface{ ForEach(func(int)) }) liveSet {
	ls := liveSet{bits: make(map[int]bool)}
	src.ForEach(func(r int) { ls.bits[r] = true })
	return ls
}
func (l liveSet) has(r int) bool { return l.bits[r] }
func (l liveSet) add(r int)      { l.bits[r] = true }
func (l liveSet) remove(r int)   { delete(l.bits, r) }
func (l liveSet) forEach(f func(r int)) {
	keys := make([]int, 0, len(l.bits))
	for r := range l.bits {
		keys = append(keys, r)
	}
	sort.Ints(keys)
	for _, r := range keys {
		f(r)
	}
}

// preSpillRef is PreSpill as it was before its rounds stopped
// building the interference graph: every round runs analyzeRef, and
// selectSpillsRef then walks the same program points on the same
// liveness and counts the same pressure again. The round statistics
// it kept, MAXLIVE entering each round, are gone from RoundStats and
// from this copy; nothing read them.
func preSpillRef(ctx context.Context, s *Func, k color.K, params spill.CostParams) (*Analysis, []RoundStats, error) {
	f := s.F
	var rounds []RoundStats
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, rounds, fmt.Errorf("ssa: %s: cancelled before pre-spill round %d: %w", f.Name, round, err)
		}
		a := analyzeRef(s)
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
		var rs RoundStats
		costs := spill.Costs(f, params)
		chosen, stuck := selectSpillsRef(s, a, k, costs)
		if len(chosen) == 0 {
			return nil, rounds, fmt.Errorf("ssa: %s: %s: %w", f.Name, stuck, ErrIrreducible)
		}
		for _, r := range chosen {
			rs.SpillCost += costs[r]
		}
		rs.Spilled = len(chosen)
		rs.Loads, rs.Stores = insertSpillCode(s, chosen)
		rounds = append(rounds, rs)
	}
}

// analyzeRef is Analyze as it was when every pre-spill round called
// it: one walk builds the interference graph and counts MAXLIVE
// incrementally at block exit, at dead definitions, before each
// instruction and at phi entry.
func analyzeRef(s *Func) *Analysis {
	f := s.F
	nr := f.NumRegs()
	classes := make([]ir.Class, nr)
	for r := 0; r < nr; r++ {
		classes[r] = f.RegClass(ir.Reg(r))
	}
	a := &Analysis{Live: computeLivenessRef(s), G: ig.New(classes)}

	var cnt [ir.NumClasses]int
	bump := func() {
		for c := 0; c < ir.NumClasses; c++ {
			if cnt[c] > a.MaxLive[c] {
				a.MaxLive[c] = cnt[c]
			}
		}
	}
	var ubuf []ir.Reg
	for _, b := range f.Blocks {
		live := a.Live.Out[b.ID].Copy()
		cnt[ir.ClassInt], cnt[ir.ClassFloat] = 0, 0
		live.ForEach(func(r int) { cnt[classes[r]]++ })
		bump() // block exit (includes outgoing phi arguments)
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if d := in.Def(); d != ir.NoReg {
				a.G.AddLiveEdges(int32(d), live, -1)
				if live.Has(int(d)) {
					live.Remove(int(d))
					cnt[classes[d]]--
				} else {
					// A dead definition still occupies a register at
					// its definition point: the clique there is d plus
					// everything live after the instruction.
					cnt[classes[d]]++
					bump()
					cnt[classes[d]]--
				}
			}
			ubuf = in.AppendUses(ubuf[:0])
			for _, u := range ubuf {
				if !live.Has(int(u)) {
					live.Add(int(u))
					cnt[classes[u]]++
				}
			}
			bump() // point just before instruction i
		}
		// Block entry: the phi destinations are all defined here,
		// simultaneously — they interfere with each other and with
		// everything live into the block body.
		phis := s.Phis[b.ID]
		for i := range phis {
			d := phis[i].Dst
			a.G.AddLiveEdges(int32(d), live, -1)
			for j := i + 1; j < len(phis); j++ {
				a.G.AddEdge(int32(d), int32(phis[j].Dst))
			}
		}
		if len(phis) > 0 {
			for i := range phis {
				if d := phis[i].Dst; !live.Has(int(d)) {
					cnt[classes[d]]++
				}
			}
			bump()
		}
	}
	a.G.Finalize()
	a.Order = domOrder(s)
	return a
}

// selectSpillsRef is selectSpills as it was before it returned the
// pressure peak: its walk starts from a.Live, and reduce and
// spillPhiDsts each sort their candidates cheapest first.
func selectSpillsRef(s *Func, a *Analysis, k color.K, costs []float64) ([]ir.Reg, string) {
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
			f.RegFlags(ir.Reg(r))&ir.FlagSpillTemp == 0 && !math.IsInf(costs[r], 1)
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
					if classOf(d) == ir.Class(c) && !inSet[d] && f.RegFlags(phis[i].Dst)&ir.FlagSpillTemp == 0 {
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

// analyzeStream is Analyze's per-pair reference stream: the order in
// which it offered every candidate edge to AddEdge, one pair at a
// time, before definitions and phi destinations went in a word at a
// time. Each definition meets the values live after it, and at a
// block's entry each phi destination meets the values live into the
// block body and then the later destinations of the block.
func analyzeStream(s *Func, lv *dataflow.Liveness, emit func(a, b int32)) {
	var ubuf []ir.Reg
	for _, b := range s.F.Blocks {
		live := lv.Out[b.ID].Copy()
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if d := in.Def(); d != ir.NoReg {
				live.ForEach(func(l int) {
					if ir.Reg(l) != d {
						emit(int32(d), int32(l))
					}
				})
				live.Remove(int(d))
			}
			ubuf = in.AppendUses(ubuf[:0])
			for _, u := range ubuf {
				live.Add(int(u))
			}
		}
		phis := s.Phis[b.ID]
		for i := range phis {
			d := phis[i].Dst
			live.ForEach(func(l int) {
				if ir.Reg(l) != d {
					emit(int32(d), int32(l))
				}
			})
			for j := i + 1; j < len(phis); j++ {
				emit(int32(d), int32(phis[j].Dst))
			}
		}
	}
}

// matchesStream replays Analyze's reference stream into per-node
// append vectors, the adjacency AddEdge built one pair at a time, and
// reports the first way a's graph differs: edge count, a row or a
// degree, or an Interfere answer. Interfere is asked of every edge
// and, when allPairs is set and the graph has at most denseNodes
// nodes, of every other pair too. Past denseNodes the graph hashes its
// edges, and a hashed graph's edge count is the number of keys it
// holds, so the count already rules out a key too many.
func matchesStream(s *Func, a *Analysis, allPairs bool) error {
	g := a.G
	n := g.NumNodes()
	seen := map[[2]int32]bool{}
	rows := make([][]int32, n)
	analyzeStream(s, a.Live, func(x, y int32) {
		if x == y || g.Class(x) != g.Class(y) {
			return
		}
		k := [2]int32{x, y}
		if x > y {
			k = [2]int32{y, x}
		}
		if seen[k] {
			return
		}
		seen[k] = true
		rows[x] = append(rows[x], y)
		rows[y] = append(rows[y], x)
	})
	if g.NumEdges() != len(seen) {
		return fmt.Errorf("edges %d != reference %d", g.NumEdges(), len(seen))
	}
	mark := make([]bool, n)
	for v := 0; v < n; v++ {
		got := g.Neighbors(int32(v))
		if (len(got) != 0 || len(rows[v]) != 0) && !reflect.DeepEqual(got, rows[v]) {
			return fmt.Errorf("v%d adjacency differs:\n graph     %v\n reference %v", v, got, rows[v])
		}
		if g.Degree(int32(v)) != len(rows[v]) {
			return fmt.Errorf("v%d degree %d != reference %d", v, g.Degree(int32(v)), len(rows[v]))
		}
		if !allPairs || n > denseNodes {
			for _, u := range rows[v] {
				if !g.Interfere(int32(v), u) {
					return fmt.Errorf("Interfere(v%d, v%d) = false on an edge", v, u)
				}
			}
			continue
		}
		for _, u := range rows[v] {
			mark[u] = true
		}
		for u := range mark {
			if g.Interfere(int32(v), int32(u)) != mark[u] {
				return fmt.Errorf("Interfere(v%d, v%d) = %v, reference %v", v, u, !mark[u], mark[u])
			}
		}
		for _, u := range rows[v] {
			mark[u] = false
		}
	}
	return nil
}

// denseNodes is the largest graph ig keeps as a bit matrix.
const denseNodes = 2048

// roundUnits compiles and optimizes, as regalloc.Compile does, the 29
// suite units (every Figure 5 routine plus QSORT) and every unit of
// 100 generated programs.
func roundUnits(t *testing.T) (names []string, fns []*ir.Func) {
	t.Helper()
	compile := func(label, src string) []*ir.Func {
		astProg, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", label, err)
		}
		info, err := sem.Check(astProg)
		if err != nil {
			t.Fatalf("%s: check: %v", label, err)
		}
		prog, err := irgen.Gen(astProg, info, irgen.DefaultStaticStart)
		if err != nil {
			t.Fatalf("%s: lower: %v", label, err)
		}
		for _, f := range prog.Funcs {
			opt.Run(f)
		}
		return prog.Funcs
	}
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		routines := map[string]bool{}
		for _, r := range w.Routines {
			routines[r] = true
		}
		for _, f := range compile(w.Program, w.Source) {
			if routines[f.Name] {
				names = append(names, w.Program+"/"+f.Name)
				fns = append(fns, f)
			}
		}
	}
	if len(fns) != 29 {
		t.Fatalf("%d suite units, want 29", len(fns))
	}
	for seed := uint64(0); seed < 100; seed++ {
		label := fmt.Sprintf("fz/%d", seed)
		for _, f := range compile(label, fuzzgen.Generate(seed, fuzzgen.Config{})) {
			names = append(names, label+"/"+f.Name)
			fns = append(fns, f)
		}
	}
	return names, fns
}

// TestPreSpillRoundsMatchReference runs PreSpill's rounds by hand on
// the suite and 100 generated programs at (16,8), (8,4), (6,4) and
// (4,4), and holds every round to two references: Analyze's graph to
// its per-pair edge stream, and the spills selectSpills chooses to
// those selectSpillsMap chooses on the same analysis and costs.
func TestPreSpillRoundsMatchReference(t *testing.T) {
	names, fns := roundUnits(t)
	params := spill.DefaultCostParams()
	rounds, spilling := 0, 0
	for _, kk := range [][2]int{{16, 8}, {8, 4}, {6, 4}, {4, 4}} {
		kk := kk
		k := color.K(func(c ir.Class) int { return kk[c] })
		for i, f := range fns {
			label := fmt.Sprintf("%s at %v", names[i], kk)
			s, err := Construct(f.Clone())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for round := 0; round <= maxPreSpillRounds; round++ {
				a := Analyze(s)
				rounds++
				// Every pair of the first round's graph, which
				// every budget shares, at the first budget; every
				// edge of the others. Asking all pairs of every
				// graph would take most of the test's time.
				if err := matchesStream(s, a, round == 0 && kk == [2]int{16, 8}); err != nil {
					t.Fatalf("%s, round %d: %v", label, round, err)
				}
				if a.MaxLive[ir.ClassInt] <= k(ir.ClassInt) && a.MaxLive[ir.ClassFloat] <= k(ir.ClassFloat) {
					break
				}
				costs := spill.Costs(s.F, params)
				chosen, stuck, _ := selectSpills(s, a.Live, k, costs)
				refChosen, refStuck := selectSpillsMap(s, a, k, costs)
				if !reflect.DeepEqual(chosen, refChosen) || stuck != refStuck {
					t.Fatalf("%s, round %d: chose %v (%q), map reference %v (%q)", label, round, chosen, stuck, refChosen, refStuck)
				}
				if len(chosen) == 0 {
					break
				}
				spilling++
				insertSpillCode(s, chosen)
			}
		}
	}
	t.Logf("%d rounds checked, %d of them spilling", rounds, spilling)
	if spilling == 0 {
		t.Fatal("no round spilled; the spill-choice reference checked nothing")
	}
}

// TestPreSpillMatchesAnalyzeReference holds PreSpill, whose rounds
// only count pressure, and the one graph Allocate builds after them to
// preSpillRef, which analyzed every round, on the suite and 100
// generated programs at (16,8), (8,4), (6,4) and (4,4). Both must fail
// with the same text, or spill the same rounds, rewrite the function
// the same way, and end on the same liveness and MAXLIVE; the graph
// must have the same rows, in order, and the same dominance order, and
// Allocate's listing must be the one the reference's analysis colors
// and lowers to.
func TestPreSpillMatchesAnalyzeReference(t *testing.T) {
	names, fns := roundUnits(t)
	ctx := context.Background()
	params := spill.DefaultCostParams()
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	allocs, spilling, failing := 0, 0, 0
	for _, kk := range [][2]int{{16, 8}, {8, 4}, {6, 4}, {4, 4}} {
		kk := kk
		k := color.K(func(c ir.Class) int { return kk[c] })
		m := target.Machine{Name: "test", NumGPR: kk[0], NumFPR: kk[1]}
		for i, f := range fns {
			label := fmt.Sprintf("%s at %v", names[i], kk)
			want, err := Construct(f.Clone())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, err := Construct(f.Clone())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			wantA, wantRounds, wantErr := preSpillRef(ctx, want, k, params)
			lv, maxLive, gotRounds, gotErr := PreSpill(ctx, got, k, params)
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
			}
			if !reflect.DeepEqual(gotRounds, wantRounds) {
				t.Fatalf("%s: rounds %+v, reference %+v", label, gotRounds, wantRounds)
			}
			if !reflect.DeepEqual(got.F, want.F) || !reflect.DeepEqual(got.Phis, want.Phis) {
				t.Fatalf("%s: the rewritten function differs from the reference's", label)
			}
			if wantErr == nil {
				if err := sameLiveness(got, lv, wantA.Live); err != nil {
					t.Fatalf("%s: the final liveness differs from the reference's: %v", label, err)
				}
				if maxLive != wantA.MaxLive {
					t.Fatalf("%s: MAXLIVE %v, reference %v", label, maxLive, wantA.MaxLive)
				}
				a := newAnalysis(got, lv, maxLive)
				if a.G.NumNodes() != wantA.G.NumNodes() || a.G.NumEdges() != wantA.G.NumEdges() {
					t.Fatalf("%s: graph of %d nodes and %d edges, reference %d and %d", label,
						a.G.NumNodes(), a.G.NumEdges(), wantA.G.NumNodes(), wantA.G.NumEdges())
				}
				for v := int32(0); v < int32(a.G.NumNodes()); v++ {
					if !reflect.DeepEqual(a.G.Neighbors(v), wantA.G.Neighbors(v)) {
						t.Fatalf("%s: v%d row %v, reference %v", label, v, a.G.Neighbors(v), wantA.G.Neighbors(v))
					}
				}
				if !reflect.DeepEqual(a.Order, wantA.Order) {
					t.Fatalf("%s: dominance order differs from the reference's", label)
				}
			}

			res, err := Allocate(ctx, f.Clone(), k, params, nil)
			if errText(err) != errText(wantErr) {
				t.Fatalf("%s: Allocate error %v, reference %v", label, err, wantErr)
			}
			allocs++
			if len(wantRounds) > 0 {
				spilling++
			}
			if wantErr != nil {
				failing++
				continue
			}
			colors, err := Color(want, wantA, k)
			if err != nil {
				t.Fatalf("%s: reference coloring: %v", label, err)
			}
			colors, _, err = Lower(want, wantA, colors, k)
			if err != nil {
				t.Fatalf("%s: reference lowering: %v", label, err)
			}
			wantList, err := listing(want.F, colors, m)
			if err != nil {
				t.Fatalf("%s: reference listing: %v", label, err)
			}
			if gotList, err := listing(res.Func, res.Colors, m); err != nil || gotList != wantList {
				t.Fatalf("%s: Allocate's listing differs from the reference's (%v):\n%s\nreference:\n%s", label, err, gotList, wantList)
			}
		}
	}
	t.Logf("%d allocations checked, %d of them spilling, %d failing", allocs, spilling, failing)
	if spilling == 0 || failing == 0 {
		t.Fatal("the sweep must both spill and fail, or the reference checked less than it claims")
	}
}
