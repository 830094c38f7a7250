package cfg_test

import (
	"testing"

	"regalloc/internal/cfg"
	"regalloc/internal/ir"
	"regalloc/internal/irgen"
	"regalloc/internal/parser"
	"regalloc/internal/sem"
)

// buildFunc assembles a Func from a block adjacency list; every
// block gets a minimal terminator matching its successor count.
func buildFunc(succs [][]int) *ir.Func {
	f := &ir.Func{Name: "T"}
	r1 := f.NewReg(ir.ClassInt)
	r2 := f.NewReg(ir.ClassInt)
	for range succs {
		f.NewBlock()
	}
	for i, ss := range succs {
		b := f.Blocks[i]
		b.Succs = append(b.Succs, ss...)
		switch len(ss) {
		case 0:
			b.Instrs = []ir.Instr{{Op: ir.OpRet, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}}
		case 1:
			b.Instrs = []ir.Instr{{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}}
		default:
			b.Instrs = []ir.Instr{{Op: ir.OpBrIf, Dst: ir.NoReg, A: r1, B: r2, C: ir.NoReg}}
		}
	}
	f.RecomputePreds()
	return f
}

func TestDiamondDominators(t *testing.T) {
	//      0
	//     / \
	//    1   2
	//     \ /
	//      3
	f := buildFunc([][]int{{1, 2}, {3}, {3}, {}})
	info := cfg.Analyze(f)
	if info.IDom[1] != 0 || info.IDom[2] != 0 || info.IDom[3] != 0 {
		t.Fatalf("idoms: %v", info.IDom)
	}
	if !info.Dominates(0, 3) || info.Dominates(1, 3) || info.Dominates(2, 3) {
		t.Fatal("dominance of the join is wrong")
	}
	if len(info.Loops) != 0 {
		t.Fatalf("no loops expected, got %v", info.Loops)
	}
}

func TestSimpleLoop(t *testing.T) {
	// 0 -> 1 (header) -> 2 (body) -> 1; 1 -> 3 (exit)
	f := buildFunc([][]int{{1}, {2, 3}, {1}, {}})
	info := cfg.Analyze(f)
	if len(info.Loops) != 1 {
		t.Fatalf("loops: %v", info.Loops)
	}
	l := info.Loops[0]
	if l.Header != 1 || len(l.Blocks) != 2 {
		t.Fatalf("loop: %+v", l)
	}
	wantDepth := []int{0, 1, 1, 0}
	for i, d := range wantDepth {
		if info.Depth[i] != d {
			t.Fatalf("depth[%d] = %d, want %d", i, info.Depth[i], d)
		}
	}
	// Analyze stamps the blocks too.
	if f.Blocks[2].Depth != 1 {
		t.Fatal("block depth not stamped")
	}
}

func TestNestedLoops(t *testing.T) {
	// 0 -> 1(outer hdr) -> 2(inner hdr) -> 3(inner body) -> 2 ; 2 -> 4(latch) -> 1 ; 1 -> 5
	f := buildFunc([][]int{{1}, {2, 5}, {3, 4}, {2}, {1}, {}})
	info := cfg.Analyze(f)
	if len(info.Loops) != 2 {
		t.Fatalf("want 2 loops, got %d", len(info.Loops))
	}
	if info.Depth[3] != 2 || info.Depth[2] != 2 || info.Depth[4] != 1 || info.Depth[1] != 1 {
		t.Fatalf("depths: %v", info.Depth)
	}
}

func TestUnreachableBlocks(t *testing.T) {
	// Block 2 is unreachable.
	f := buildFunc([][]int{{1}, {}, {1}})
	info := cfg.Analyze(f)
	if info.RPONum[2] != -1 {
		t.Fatal("unreachable block got an RPO number")
	}
	if info.Dominates(2, 1) || info.Dominates(1, 2) {
		t.Fatal("unreachable blocks must not participate in dominance")
	}
}

func TestMultipleBackEdgesOneHeader(t *testing.T) {
	// Two latches into the same header form ONE loop.
	// 0 -> 1 -> 2 -> {1, 3}; 3 -> {1, 4}
	f := buildFunc([][]int{{1}, {2}, {1, 3}, {1, 4}, {}})
	info := cfg.Analyze(f)
	if len(info.Loops) != 1 {
		t.Fatalf("want 1 merged loop, got %d", len(info.Loops))
	}
	if info.Depth[1] != 1 || info.Depth[2] != 1 || info.Depth[3] != 1 {
		t.Fatalf("depths: %v", info.Depth)
	}
}

// refDominates is the textbook oracle: v dominates w iff removing v
// from the graph makes w unreachable from entry (and reachable
// before). Quadratic, fine for the table graphs.
func refDominates(succs [][]int, v, w int) bool {
	reach := func(skip int) []bool {
		seen := make([]bool, len(succs))
		if skip == 0 {
			return seen
		}
		var walk func(int)
		walk = func(b int) {
			if b == skip || seen[b] {
				return
			}
			seen[b] = true
			for _, s := range succs[b] {
				walk(s)
			}
		}
		walk(0)
		return seen
	}
	if !reach(-1)[w] {
		return false // unreachable blocks dominate nothing and are dominated by nothing
	}
	return v == w || !reach(v)[w]
}

// TestDominatorTable cross-checks Analyze against the removal oracle
// on the CFG shapes that historically break dominator algorithms:
// single-block functions, self-loops, unreachable subgraphs (including
// unreachable cycles), and irreducible loops entered from two sides.
func TestDominatorTable(t *testing.T) {
	cases := []struct {
		name  string
		succs [][]int
		// wantIDom[b] = expected immediate dominator (-1 unreachable).
		wantIDom []int
		loops    int
	}{
		{
			name:     "single block",
			succs:    [][]int{{}},
			wantIDom: []int{0},
			loops:    0,
		},
		{
			name:     "self loop",
			succs:    [][]int{{1}, {1, 2}, {}},
			wantIDom: []int{0, 0, 1},
			loops:    1,
		},
		{
			name:     "self loop on entry",
			succs:    [][]int{{0, 1}, {}},
			wantIDom: []int{0, 0},
			loops:    1,
		},
		{
			name: "irreducible: two entries into a cycle",
			// 0 branches to 1 and 2; 1 <-> 2 form a cycle neither
			// dominates, so the retreating edge is not a back edge
			// and no natural loop is reported.
			succs:    [][]int{{1, 2}, {2, 3}, {1, 3}, {}},
			wantIDom: []int{0, 0, 0, 0},
			loops:    0,
		},
		{
			name: "unreachable cycle",
			// 2 and 3 cycle but nothing reaches them.
			succs:    [][]int{{1}, {}, {3}, {2}},
			wantIDom: []int{0, 0, -1, -1},
			loops:    0,
		},
		{
			name: "unreachable block with edge into live code",
			// 2 jumps into the live chain; its edge must not
			// perturb the dominance of reachable blocks.
			succs:    [][]int{{1}, {}, {1}},
			wantIDom: []int{0, 0, -1},
			loops:    0,
		},
		{
			name: "nested loop sharing a latch chain",
			// 0 -> 1 -> 2 -> 3 -> 2, 3 -> 1, 1 -> 4
			succs:    [][]int{{1}, {2, 4}, {3}, {2, 1}, {}},
			wantIDom: []int{0, 0, 1, 2, 1},
			loops:    2,
		},
		{
			name: "irreducible cycle inside a loop",
			// Loop 1..4 with latch 4; inside it 2 and 3 form a
			// cycle entered from both sides.
			succs:    [][]int{{1}, {2, 3}, {3, 4}, {2, 4}, {1, 5}, {}},
			wantIDom: []int{0, 0, 1, 1, 1, 4},
			loops:    1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := buildFunc(tc.succs)
			info := cfg.Analyze(f)
			for b, want := range tc.wantIDom {
				if info.IDom[b] != want {
					t.Errorf("IDom[%d] = %d, want %d (all: %v)", b, info.IDom[b], want, info.IDom)
				}
			}
			if len(info.Loops) != tc.loops {
				t.Errorf("loops = %d, want %d (%+v)", len(info.Loops), tc.loops, info.Loops)
			}
			n := len(tc.succs)
			for v := 0; v < n; v++ {
				for w := 0; w < n; w++ {
					got := info.Dominates(v, w)
					want := refDominates(tc.succs, v, w)
					if got != want {
						t.Errorf("Dominates(%d,%d) = %v, oracle says %v", v, w, got, want)
					}
				}
			}
			// A preheader for each loop in turn, with the analysis
			// kept current, matches a fresh one; the entry's
			// preheader is unreachable.
			for i := range info.Loops {
				header := info.Loops[i].Header
				pre := cfg.InsertPreheader(f, info.Loops[i])
				info.AddPreheader(f, header, pre.ID)
				if err := diffInfo(info, cfg.AnalyzeRef(f)); err != nil {
					t.Errorf("after the preheader of the loop at b%d: %v", header, err)
				}
			}
		})
	}
}

// TestCompiledLoopDepths checks depth assignment on real compiled
// code with a triple nest.
func TestCompiledLoopDepths(t *testing.T) {
	src := `
      SUBROUTINE TRIPLE(A,N)
      REAL A(*)
      INTEGER I,J,K,N
      DO I = 1,N
         DO J = 1,N
            DO K = 1,N
               A(K) = A(K) + 1.0
            ENDDO
         ENDDO
      ENDDO
      END
`
	astProg, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(astProg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := irgen.Gen(astProg, info, irgen.DefaultStaticStart)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("TRIPLE")
	cfg.Analyze(f)
	maxDepth := 0
	for _, b := range f.Blocks {
		if b.Depth > maxDepth {
			maxDepth = b.Depth
		}
	}
	if maxDepth != 3 {
		t.Fatalf("max loop depth = %d, want 3", maxDepth)
	}
}
