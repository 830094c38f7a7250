package regalloc_test

import (
	"testing"
	"time"

	"regalloc"
	"regalloc/internal/workloads"
)

// TestCompileManyLoopsTime guards the optimizer against superlinear
// work in the number of loops per unit. The unit is 800 sequential
// DO loops, each with invariant work to hoist. A loop-invariant code
// motion driver that re-analyzes the CFG after every hoist spends
// seconds on it; one analysis per unit takes tens of milliseconds.
// The 5 s bound leaves room for slow and shared machines while a
// quadratic-or-worse driver still fails loudly.
func TestCompileManyLoopsTime(t *testing.T) {
	w := workloads.Loops(800)
	start := time.Now()
	prog, err := regalloc.Compile(w.Source)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("compiled %d loops (%d bytes of source) in %v", 800, len(w.Source), took)
	if took > 5*time.Second {
		t.Fatalf("compiling %d sequential loops took %v, want under 5s", 800, took)
	}
	if prog.Func("LOOPS") == nil {
		t.Fatal("no LOOPS unit")
	}
}

// TestAllocateManyLoopsTime guards the coalescing pre-pass against
// work that grows with the number of rounds times the size of the
// unit. In the 800-loop unit every loop copies its bound out of one
// shared register, so aggressive coalescing needs 801 rounds in its
// first pass. A round that rewrites the unit and re-solves liveness
// makes that allocation take a couple of hundred times as long as
// compiling the source; a round that costs what it merged takes a few
// times as long. The conservative legs, Briggs under
// ConservativeCoalesce and irc, whose spill rounds run it, also hold
// the Briggs test's graph to that: a round that rebuilds the whole
// graph takes 65–85 times the compile, and one that edits the rows the
// last round changed about 8 times. Bounding the ratio instead of the
// wall clock holds on slow and shared machines and under the race
// detector alike.
func TestAllocateManyLoopsTime(t *testing.T) {
	const loops, maxRatio = 800, 25
	w := workloads.Loops(loops)
	start := time.Now()
	prog, err := regalloc.Compile(w.Source)
	compiled := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name         string
		h            regalloc.Heuristic
		conservative bool
	}{
		{"briggs", regalloc.Briggs, false},
		{"briggs with ConservativeCoalesce", regalloc.Briggs, true},
		{"irc", regalloc.IRC, false},
	} {
		opt := regalloc.DefaultOptions()
		opt.Heuristic = leg.h
		opt.ConservativeCoalesce = leg.conservative
		opt.KInt, opt.KFloat = 16, 8
		start = time.Now()
		if _, err := prog.Allocate("LOOPS", opt); err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		allocated := time.Since(start)
		ratio := float64(allocated) / float64(compiled)
		t.Logf("%d loops: compiled in %v; %s allocated in %v (%.1fx)", loops, compiled, leg.name, allocated, ratio)
		if ratio > maxRatio {
			t.Errorf("allocating %d sequential loops under %s took %v, %.0fx the %v compile; want at most %dx",
				loops, leg.name, allocated, ratio, compiled, maxRatio)
		}
	}
}
