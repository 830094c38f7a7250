package portfolio_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"regalloc"
	"regalloc/internal/alloc"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ir"
	"regalloc/internal/machine"
	"regalloc/internal/obs"
	"regalloc/internal/portfolio"
	"regalloc/internal/target"
	"regalloc/internal/workloads"
)

// TestSharedBuildMatchesStandalone is the oracle for the pass 0 Build
// a race's candidates share (alloc.Starts). Every candidate's outcome
// must equal a standalone alloc.RunContext under the same options:
// status and error, spills, cost, the allocated function, its colors
// and its passes, phase durations aside. After each race every shared
// start must still equal a fresh Build, so no candidate wrote through
// it. It races the 29 suite units at (16,8), (8,4), (6,4) and (4,4)
// under five bases (plain, the RT/PC machine model, Rematerialize,
// Split and ConservativeCoalesce), and 100 generated programs at
// (16,8) and (8,4), plain, on four workers, so candidates reach a
// group's Build while it runs. Every race runs briggs, chaitin, mb and
// (without the machine model, which it does not honor) pcolor/s1: one
// of each way a Figure 4 pass colors. The default set's metric and
// Jones–Plassmann variants take those same paths. irc joins
// the suite races where its baseline shares their Build
// (ConservativeCoalesce), and irc and ssa where they build alone
// (plain).
func TestSharedBuildMatchesStandalone(t *testing.T) {
	var starts *alloc.Starts
	restore := portfolio.ObserveStarts(func(s *alloc.Starts) { starts = s })
	defer restore()

	type unit struct {
		name string
		f    *ir.Func
	}
	var suite, generated []unit
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		prog, err := regalloc.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Program, err)
		}
		for _, r := range w.Routines {
			suite = append(suite, unit{w.Program + "/" + r, prog.Func(r)})
		}
	}
	for seed := uint64(0); seed < 100; seed++ {
		prog, err := regalloc.Compile(fuzzgen.Generate(seed, fuzzgen.Config{}))
		if err != nil {
			t.Fatalf("fuzzgen seed %d: %v", seed, err)
		}
		generated = append(generated, unit{fmt.Sprintf("fz/%d", seed), prog.Func("FZ")})
	}

	bases := []struct {
		name  string
		set   func(*alloc.Options)
		extra []string // candidates raced besides the Figure 4 four
	}{
		{"plain", func(*alloc.Options) {}, []string{"irc", "ssa"}},
		{"machine", func(o *alloc.Options) {
			o.Machine = machine.ForTarget(target.RTPC().WithGPR(o.KInt).WithFPR(o.KFloat))
		}, nil},
		{"remat", func(o *alloc.Options) { o.Rematerialize = true }, nil},
		{"split", func(o *alloc.Options) { o.Split = true }, nil},
		{"conservative", func(o *alloc.Options) { o.ConservativeCoalesce = true }, []string{"irc"}},
		{"generated", func(*alloc.Options) {}, nil},
	}
	type sweep struct {
		units []unit
		base  int
		k     [2]int
	}
	var sweeps []sweep
	for b := range bases[:5] {
		for _, k := range [][2]int{{16, 8}, {8, 4}, {6, 4}, {4, 4}} {
			sweeps = append(sweeps, sweep{suite, b, k})
		}
	}
	for _, k := range [][2]int{{16, 8}, {8, 4}} {
		sweeps = append(sweeps, sweep{generated, 5, k})
	}

	races, shared, wrong := 0, 0, 0
	for _, sw := range sweeps {
		base := alloc.DefaultOptions()
		base.KInt, base.KFloat = sw.k[0], sw.k[1]
		bases[sw.base].set(&base)
		keep := map[string]bool{"briggs": true, "chaitin": true, "mb": true, "pcolor/s1": base.Machine == nil}
		for _, name := range bases[sw.base].extra {
			keep[name] = true
		}
		var cands []portfolio.Candidate
		for _, c := range portfolio.Default(base, 1) {
			if keep[c.Name] {
				cands = append(cands, c)
			}
		}
		for _, u := range sw.units {
			label := fmt.Sprintf("%s under %s at %v", u.name, bases[sw.base].name, sw.k)
			// The standalone runs go alongside the race.
			alone := make([]standaloneRun, len(cands))
			var wg sync.WaitGroup
			for i, c := range cands {
				wg.Add(1)
				go func() {
					defer wg.Done()
					alone[i] = standalone(u.f, c.Opt)
				}()
			}
			starts = nil
			pr, err := portfolio.Race(context.Background(), u.f, cands, portfolio.Config{Workers: 4})
			wg.Wait()
			if starts == nil {
				t.Fatalf("%s: the race handed no shared-Build memo to the observer", label)
			}
			races++
			n, serr := starts.Check()
			shared += n
			if serr != nil {
				if wrong++; wrong <= 5 {
					t.Errorf("%s: %v", label, serr)
				}
			}
			if err != nil {
				// Every candidate errored: the outcomes are not
				// returned, so compare each standalone run's failure.
				for i, c := range cands {
					if alone[i].err == nil {
						t.Errorf("%s: race failed (%v) but %s alone finishes", label, err, c.Name)
					}
				}
				continue
			}
			for i, c := range cands {
				if err := sameOutcome(pr.Outcomes[i], alone[i]); err != nil {
					if wrong++; wrong <= 5 {
						t.Errorf("%s: %s: %v", label, c.Name, err)
					}
				}
			}
		}
	}
	t.Logf("%d races, %d shared starts checked", races, shared)
	if shared == 0 {
		t.Fatal("no race shared a Build; the oracle checked nothing")
	}
	if wrong > 0 {
		t.Fatalf("%d mismatches", wrong)
	}
}

// standaloneRun is one candidate's allocation outside any race.
type standaloneRun struct {
	res *alloc.Result
	err error
}

// standalone allocates f alone under opt and verifies the result as
// the race does.
func standalone(f *ir.Func, opt alloc.Options) standaloneRun {
	res, err := alloc.RunContext(context.Background(), f, opt)
	if err == nil {
		err = alloc.VerifyAssignment(res.Func, res.Colors)
	}
	return standaloneRun{res, err}
}

// sameOutcome reports the first way a race outcome differs from the
// standalone run of its options.
func sameOutcome(o portfolio.Outcome, alone standaloneRun) error {
	res, err := alone.res, alone.err
	if err != nil {
		if o.Status != portfolio.Errored || o.Err.Error() != err.Error() {
			return fmt.Errorf("raced %v (%v), alone errored: %v", o.Status, o.Err, err)
		}
		return nil
	}
	if o.Status != portfolio.Finished {
		return fmt.Errorf("raced %v (%v), alone finished", o.Status, o.Err)
	}
	spills, cost := 0, 0.0
	for _, p := range res.Passes {
		spills += p.Spilled
		cost += p.SpillCost
	}
	switch {
	case o.Spills != spills || o.SpillCostMilli != obs.SpillCostMilli(cost):
		return fmt.Errorf("raced %d spills costing %d, alone %d costing %d",
			o.Spills, o.SpillCostMilli, spills, obs.SpillCostMilli(cost))
	case !reflect.DeepEqual(o.Result.Func, res.Func):
		return fmt.Errorf("allocated function differs from the standalone one")
	case !reflect.DeepEqual(o.Result.Colors, res.Colors):
		return fmt.Errorf("colors differ from the standalone ones")
	case !reflect.DeepEqual(untimed(o.Result.Passes), untimed(res.Passes)):
		return fmt.Errorf("passes %+v, alone %+v", untimed(o.Result.Passes), untimed(res.Passes))
	}
	return nil
}

// untimed copies passes with their phase durations zeroed.
func untimed(passes []alloc.PassStats) []alloc.PassStats {
	out := append([]alloc.PassStats(nil), passes...)
	for i := range out {
		out[i].Build, out[i].Simplify, out[i].Color, out[i].Spill = 0, 0, 0, 0
	}
	return out
}
