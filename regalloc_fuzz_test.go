package regalloc_test

import (
	"context"
	"errors"
	"testing"

	"regalloc"
	"regalloc/internal/alloc"
	"regalloc/internal/asm"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/irinterp"
	"regalloc/internal/pcolor"
	"regalloc/internal/portfolio"
	"regalloc/internal/vm"
)

// The execution-equivalence oracle: a fuzzgen program is compiled
// once, executed on the reference IR interpreter (pre-allocation
// semantics), then register-allocated, lowered, and executed on the
// machine simulator; the two final array images must digest to the
// same value, and every per-unit assignment must survive
// alloc.VerifyAssignment (the program-level oracle that catches
// graph-construction bugs color.Verify cannot see).

const fuzzIABase, fuzzRABase = int64(0), int64(100)

// fuzzSeedArrays writes the deterministic initial array images both
// executions start from.
func fuzzSeedArrays(storeInt func(int64, int64), storeFloat func(int64, float64)) {
	for i := int64(0); i < fuzzgen.ArraySize; i++ {
		storeInt(fuzzIABase+i, (i*7+3)%23-11)
		storeFloat(fuzzRABase+i, float64(i)*0.375-4.0)
	}
}

// fuzzDigest folds the final array images into one value. Floats are
// quantized so the comparison tolerates nothing beyond formatting —
// the VM computes in the same float64 arithmetic as the interpreter.
func fuzzDigest(loadInt func(int64) int64, loadFloat func(int64) float64) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v int64) {
		h = h*1099511628211 ^ uint64(v)
	}
	for i := int64(0); i < fuzzgen.ArraySize; i++ {
		mix(loadInt(fuzzIABase + i))
		mix(int64(loadFloat(fuzzRABase+i) * 4096))
	}
	return h
}

// fuzzRunVM runs code's FZ on the machine simulator from the seeded
// array images and returns the digest of the final ones.
func fuzzRunVM(code *asm.Program, prog *regalloc.Program) (uint64, error) {
	machine := regalloc.NewVM(code, prog.MemWords())
	fuzzSeedArrays(machine.StoreInt, machine.StoreFloat)
	if _, err := machine.Call("FZ", vm.Int(fuzzIABase), vm.Int(fuzzRABase), vm.Int(5)); err != nil {
		return 0, err
	}
	return fuzzDigest(machine.LoadInt, machine.LoadFloat), nil
}

// FuzzAllocateExecutes drives generated programs end to end through
// Allocate+Assemble and demands execution equivalence between the
// input IR (irinterp) and the allocated machine code (vm), across
// both paper heuristics and a register budget derived from the fuzz
// input. Any divergence — wrong answer, improper assignment, or an
// unexpected compile/run failure on a generator-guaranteed-valid
// program — is a crash.
func FuzzAllocateExecutes(f *testing.F) {
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(7), uint64(1))
	f.Add(uint64(42), uint64(2))
	f.Add(uint64(1000003), uint64(5))
	f.Add(uint64(23), uint64(4)) // odd seed+kraw: machine-model leg, k=12
	f.Add(uint64(31), uint64(6)) // odd seed+kraw: machine-model leg, k=8
	f.Add(uint64(2), uint64(0))  // (seed+kraw)%4 == 2: spill-mode leg, k=8
	f.Add(uint64(9), uint64(2))  // (seed+kraw)%4 == 3: spill-mode leg, k=16
	f.Add(uint64(12), uint64(1)) // odd seed^kraw: pcolor leg, k=12
	f.Fuzz(func(t *testing.T, seed, kraw uint64) {
		// Register budgets below 8 are not a supported target shape
		// (spill lowering needs scratch headroom), so map the fuzz
		// input onto {8, 12, 16}.
		k := []int{8, 12, 16}[kraw%3]
		src := fuzzgen.Generate(seed, fuzzgen.Config{})
		prog, err := regalloc.Compile(src)
		if err != nil {
			t.Fatalf("generator produced an uncompilable program (seed %d):\n%s\n%v", seed, src, err)
		}

		it := irinterp.New(prog.IR, 1<<22)
		fuzzSeedArrays(it.StoreInt, it.StoreFloat)
		if _, err := it.Call("FZ", irinterp.Int(fuzzIABase), irinterp.Int(fuzzRABase), irinterp.Int(5)); err != nil {
			t.Fatalf("seed %d: reference interpreter failed: %v\n%s", seed, err, src)
		}
		want := fuzzDigest(it.LoadInt, it.LoadFloat)

		for _, h := range []regalloc.Heuristic{regalloc.Chaitin, regalloc.Briggs, regalloc.SSA, regalloc.IRC} {
			opt := regalloc.DefaultOptions()
			opt.Heuristic = h
			opt.KInt = k
			m := regalloc.RTPC().WithGPR(k)
			code, results, err := prog.Assemble(m, opt)
			if h == regalloc.SSA && errors.Is(err, regalloc.ErrIrreducible) {
				// A generated call reads more distinct same-class
				// values than the budget holds; no allocator fits
				// this unit, so the SSA leg has nothing to check.
				continue
			}
			if err != nil {
				t.Fatalf("seed %d %s k=%d: assemble: %v\n%s", seed, h, k, err, src)
			}
			for name, res := range results {
				if err := alloc.VerifyAssignment(res.Func, res.Colors); err != nil {
					t.Fatalf("seed %d %s k=%d %s: assignment oracle: %v\n%s", seed, h, k, name, err, src)
				}
			}
			got, err := fuzzRunVM(code, prog)
			if err != nil {
				t.Fatalf("seed %d %s k=%d: vm: %v\n%s", seed, h, k, err, src)
			}
			if got != want {
				t.Fatalf("seed %d %s k=%d: allocated code diverged from the input IR\n%s", seed, h, k, src)
			}
		}

		// Machine-model leg (half the corpus, keyed off the fuzz
		// input): allocate under the register-file constraints —
		// FZ's parameters bind to precolored argument registers,
		// values crossing generated flow prefer callee-saved colors —
		// and demand both the stronger machine oracle and the same
		// execution digest. Runs IRC (which additionally coalesces the
		// convention bindings) and Briggs (the plain Figure 4 cycle
		// under precolored pressure).
		if (seed+kraw)%2 == 1 {
			m := regalloc.RTPC().WithGPR(k)
			model := regalloc.MachineFor(m)
			for _, h := range []regalloc.Heuristic{regalloc.Briggs, regalloc.IRC} {
				opt := regalloc.DefaultOptions()
				opt.Heuristic = h
				opt.KInt = k
				opt.Machine = model
				code, results, err := prog.Assemble(m, opt)
				if err != nil {
					t.Fatalf("seed %d %s machine k=%d: assemble: %v\n%s", seed, h, k, err, src)
				}
				for name, res := range results {
					if err := alloc.VerifyAssignmentMachine(res.Func, res.Colors, model); err != nil {
						t.Fatalf("seed %d %s machine k=%d %s: machine oracle: %v\n%s", seed, h, k, name, err, src)
					}
				}
				got, err := fuzzRunVM(code, prog)
				if err != nil {
					t.Fatalf("seed %d %s machine k=%d: vm: %v\n%s", seed, h, k, err, src)
				}
				if got != want {
					t.Fatalf("seed %d %s machine k=%d: allocated code diverged from the input IR\n%s", seed, h, k, src)
				}
			}
		}

		// Spill-mode leg (half the corpus, keyed off the fuzz input
		// across both halves above): Briggs with rematerialization
		// and with live-range splitting, the two spill rewrites the
		// heuristic legs never reach, held to the assignment oracle
		// and the same execution digest.
		if (seed+kraw)%4 >= 2 {
			for _, mode := range []string{"remat", "split"} {
				opt := regalloc.DefaultOptions()
				opt.KInt = k
				opt.Rematerialize = mode == "remat"
				opt.Split = mode == "split"
				m := regalloc.RTPC().WithGPR(k)
				code, results, err := prog.Assemble(m, opt)
				if err != nil {
					t.Fatalf("seed %d briggs %s k=%d: assemble: %v\n%s", seed, mode, k, err, src)
				}
				for name, res := range results {
					if err := alloc.VerifyAssignment(res.Func, res.Colors); err != nil {
						t.Fatalf("seed %d briggs %s k=%d %s: assignment oracle: %v\n%s", seed, mode, k, name, err, src)
					}
				}
				got, err := fuzzRunVM(code, prog)
				if err != nil {
					t.Fatalf("seed %d briggs %s k=%d: vm: %v\n%s", seed, mode, k, err, src)
				}
				if got != want {
					t.Fatalf("seed %d briggs %s k=%d: allocated code diverged from the input IR\n%s", seed, mode, k, src)
				}
			}
		}

		// pcolor leg (the half of the corpus the portfolio leg below
		// skips, keyed off the fuzz input): the speculative engine and
		// the Jones–Plassmann one, seeded by the input, held to the
		// assignment oracle and the same execution digest. The
		// portfolio leg races pcolor but executes only the winner's
		// code, so this is where pcolor's code runs.
		if (seed^kraw)%2 == 1 {
			for _, algo := range []pcolor.Algo{pcolor.Speculative, pcolor.JonesPlassmann} {
				opt := regalloc.DefaultOptions()
				opt.KInt = k
				opt.UsePColor, opt.PColorSeed, opt.PColorAlgo = true, seed, algo
				m := regalloc.RTPC().WithGPR(k)
				code, results, err := prog.Assemble(m, opt)
				if err != nil {
					t.Fatalf("seed %d pcolor/%s k=%d: assemble: %v\n%s", seed, algo, k, err, src)
				}
				for name, res := range results {
					if err := alloc.VerifyAssignment(res.Func, res.Colors); err != nil {
						t.Fatalf("seed %d pcolor/%s k=%d %s: assignment oracle: %v\n%s", seed, algo, k, name, err, src)
					}
				}
				got, err := fuzzRunVM(code, prog)
				if err != nil {
					t.Fatalf("seed %d pcolor/%s k=%d: vm: %v\n%s", seed, algo, k, err, src)
				}
				if got != want {
					t.Fatalf("seed %d pcolor/%s k=%d: allocated code diverged from the input IR\n%s", seed, algo, k, src)
				}
			}
		}

		// Portfolio leg (half the corpus, keyed off the fuzz input):
		// race the full default candidate set per unit and demand the
		// winning code pass the same execution-digest oracle — the
		// cheapest verified result must still be a *correct* result.
		if (seed^kraw)%2 == 0 {
			opt := regalloc.DefaultOptions()
			opt.KInt = k
			m := regalloc.RTPC().WithGPR(k)
			cands := regalloc.DefaultPortfolio(opt, 1)
			code, results, err := prog.AssemblePortfolio(context.Background(), m, cands, regalloc.PortfolioConfig{})
			if err != nil {
				t.Fatalf("seed %d portfolio k=%d: assemble: %v\n%s", seed, k, err, src)
			}
			for name, pr := range results {
				if err := alloc.VerifyAssignment(pr.Res.Func, pr.Res.Colors); err != nil {
					t.Fatalf("seed %d portfolio k=%d %s: assignment oracle: %v\n%s", seed, k, name, err, src)
				}
				win := pr.Outcomes[pr.Winner]
				for _, o := range pr.Outcomes {
					if o.Status == portfolio.Finished && o.SpillCostMilli < win.SpillCostMilli {
						t.Fatalf("seed %d portfolio k=%d %s: candidate %s (cost %d) beat the selected winner %s (cost %d)",
							seed, k, name, o.Name, o.SpillCostMilli, win.Name, win.SpillCostMilli)
					}
				}
			}
			got, err := fuzzRunVM(code, prog)
			if err != nil {
				t.Fatalf("seed %d portfolio k=%d: vm: %v\n%s", seed, k, err, src)
			}
			if got != want {
				t.Fatalf("seed %d portfolio k=%d: portfolio winner's code diverged from the input IR\n%s", seed, k, src)
			}
		}
	})
}
