package regalloc_test

import (
	"strings"
	"testing"

	"regalloc"
	"regalloc/internal/alloc"
	"regalloc/internal/vm"
)

const demo = `
      INTEGER FUNCTION FIB(N)
      INTEGER A,B,T,I,N
      A = 0
      B = 1
      DO I = 1,N
         T = A + B
         A = B
         B = T
      ENDDO
      FIB = A
      END
`

func TestCompileAllocateRun(t *testing.T) {
	prog, err := regalloc.Compile(demo)
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Functions(); len(got) != 1 || got[0] != "FIB" {
		t.Fatalf("functions: %v", got)
	}
	res, err := prog.Allocate("FIB", regalloc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveRanges() == 0 {
		t.Fatal("no live ranges")
	}
	code, results, err := prog.Assemble(regalloc.RTPC(), regalloc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if results["FIB"] == nil {
		t.Fatal("no per-unit result")
	}
	m := regalloc.NewVM(code, prog.MemWords())
	v, err := m.Call("FIB", vm.Int(30))
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 832040 {
		t.Fatalf("fib(30) = %d", v.I)
	}
}

// unreachableRead reads J in code after the RETURN, where no
// definition reaches it.
const unreachableRead = `
      SUBROUTINE UNR(X, N)
      REAL X(10)
      INTEGER N, I, J
      J = N + 1
      X(1) = J
      RETURN
      I = J * 2
      X(2) = I
      END
`

// TestAllocateUnreachableRead: every heuristic allocates a routine
// that reads a variable after its RETURN, with a verified assignment,
// at the paper's (16,8) and at (4,4).
func TestAllocateUnreachableRead(t *testing.T) {
	prog, err := regalloc.Compile(unreachableRead)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []regalloc.Heuristic{regalloc.Chaitin, regalloc.Briggs, regalloc.MatulaBeck, regalloc.SSA, regalloc.IRC} {
		for _, k := range [][2]int{{16, 8}, {4, 4}} {
			opt := regalloc.DefaultOptions()
			opt.Heuristic = h
			opt.KInt, opt.KFloat = k[0], k[1]
			res, err := prog.Allocate("UNR", opt)
			if err != nil {
				t.Errorf("%v at %v: %v", h, k, err)
				continue
			}
			if err := alloc.VerifyAssignment(res.Func, res.Colors); err != nil {
				t.Errorf("%v at %v: %v", h, k, err)
			}
		}
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := regalloc.Compile("      SUBROUTINE\n"); err == nil || !strings.Contains(err.Error(), "parse") {
		t.Fatalf("parse error not surfaced: %v", err)
	}
	if _, err := regalloc.Compile("      SUBROUTINE F(N)\n      X = NOPE(1)\n      END\n"); err == nil || !strings.Contains(err.Error(), "check") {
		t.Fatalf("check error not surfaced: %v", err)
	}
}

func TestAllocateUnknownUnit(t *testing.T) {
	prog, err := regalloc.Compile(demo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Allocate("NOPE", regalloc.DefaultOptions()); err == nil {
		t.Fatal("expected error")
	}
}

func TestCompileNoOptSameSemantics(t *testing.T) {
	optProg, err := regalloc.Compile(demo)
	if err != nil {
		t.Fatal(err)
	}
	noProg, err := regalloc.CompileNoOpt(demo)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *regalloc.Program) int64 {
		code, _, err := p.Assemble(regalloc.RTPC(), regalloc.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		v, err := regalloc.NewVM(code, p.MemWords()).Call("FIB", vm.Int(20))
		if err != nil {
			t.Fatal(err)
		}
		return v.I
	}
	if run(optProg) != run(noProg) {
		t.Fatal("optimizer changed FIB")
	}
}

// TestHeuristicAgreement: on this small function all heuristics find
// a spill-free coloring and the code behaves identically.
func TestHeuristicAgreement(t *testing.T) {
	prog, err := regalloc.Compile(demo)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []regalloc.Heuristic{regalloc.Chaitin, regalloc.Briggs, regalloc.MatulaBeck} {
		opt := regalloc.DefaultOptions()
		opt.Heuristic = h
		res, err := prog.Allocate("FIB", opt)
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		if res.TotalSpilled() != 0 {
			t.Fatalf("%s spilled on a trivial function", h)
		}
	}
}
