package regalloc_test

import (
	"fmt"
	"testing"

	"regalloc"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ir"
	"regalloc/internal/workloads"
)

// countMoves returns the number of register-copy instructions left in
// an allocated unit.
func countMoves(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].IsMove() {
				n++
			}
		}
	}
	return n
}

// TestIRCMatchesConservativeBriggs is the differential oracle of
// iterated register coalescing, over the full Figure 5 corpus plus 100
// generated CFGs. Its baseline is Briggs with conservative coalescing,
// the configuration irc's spill rounds run — not the portfolio's
// default `briggs`, which coalesces aggressively and can spill less.
// Against that baseline IRC must
//
//   - spill at exactly the same total estimated cost on every unit:
//     the worklist round runs only on an already-colorable program and
//     falls back to the baseline coloring rather than add a spill, and
//   - eliminate a strictly larger share of copies: on every
//     move-heavy unit (>= 4 copies surviving the Briggs pre-pass) it
//     must leave no more moves, and across all such units it must
//     remove at least 30% of the copies the pre-pass left behind.
//
// The margin comes from retesting: the pre-pass runs its conservative
// test once against the full-pressure graph, while IRC retests every
// move as simplification lowers its neighborhood's degrees.
func TestIRCMatchesConservativeBriggs(t *testing.T) {
	briggs := regalloc.DefaultOptions()
	briggs.ConservativeCoalesce = true

	ircOpt := regalloc.DefaultOptions()
	ircOpt.Heuristic = regalloc.IRC

	type unit struct {
		name    string // label for messages
		routine string // routine to allocate
		prog    *regalloc.Program
	}
	var units []unit
	for _, w := range workloads.All() {
		prog, err := regalloc.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Program, err)
		}
		for _, r := range w.Routines {
			units = append(units, unit{w.Program + "/" + r, r, prog})
		}
	}
	for seed := uint64(0); seed < 100; seed++ {
		prog, err := regalloc.Compile(fuzzgen.Generate(seed, fuzzgen.Config{}))
		if err != nil {
			t.Fatalf("fuzzgen seed %d: %v", seed, err)
		}
		units = append(units, unit{fmt.Sprintf("fz/%d", seed), "FZ", prog})
	}

	var heavyBriggs, heavyIRC int
	for _, u := range units {
		bres, err := u.prog.Allocate(u.routine, briggs)
		if err != nil {
			t.Fatalf("%s briggs: %v", u.name, err)
		}
		ires, err := u.prog.Allocate(u.routine, ircOpt)
		if err != nil {
			t.Fatalf("%s irc: %v", u.name, err)
		}
		bcost := bres.TotalSpillCost()
		icost := ires.TotalSpillCost()
		if icost != bcost {
			t.Errorf("%s: irc spill cost %.1f differs from conservative briggs %.1f", u.name, icost, bcost)
		}
		bm, im := countMoves(bres.Func), countMoves(ires.Func)
		if bm >= 4 {
			heavyBriggs += bm
			heavyIRC += im
			if im > bm {
				t.Errorf("%s: irc leaves %d moves, briggs leaves %d", u.name, im, bm)
			}
		}
		t.Logf("%s: moves briggs=%d irc=%d, cost briggs=%.1f irc=%.1f", u.name, bm, im, bcost, icost)
	}
	if heavyBriggs == 0 {
		t.Fatal("no move-heavy units in the corpus; the differential is vacuous")
	}
	eliminated := float64(heavyBriggs-heavyIRC) / float64(heavyBriggs)
	t.Logf("move-heavy units: briggs leaves %d copies, irc leaves %d (%.0f%% eliminated)",
		heavyBriggs, heavyIRC, eliminated*100)
	if eliminated < 0.30 {
		t.Fatalf("irc eliminated only %.0f%% of the copies briggs left; want >= 30%%", eliminated*100)
	}
}
