package ssa

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"regalloc/internal/color"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ir"
	"regalloc/internal/irgen"
	"regalloc/internal/opt"
	"regalloc/internal/parser"
	"regalloc/internal/sem"
	"regalloc/internal/spill"
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

// analyzeStream is Analyze's per-pair reference stream: the order in
// which it offered every candidate edge to AddEdge, one pair at a
// time, before definitions and phi destinations went in a word at a
// time. Each definition meets the values live after it, and at a
// block's entry each phi destination meets the values live into the
// block body and then the later destinations of the block.
func analyzeStream(s *Func, lv *Liveness, emit func(a, b int32)) {
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
				chosen, stuck := selectSpills(s, a, k, costs)
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
