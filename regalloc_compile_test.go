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
