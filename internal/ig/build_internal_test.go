package ig

import (
	"fmt"
	"reflect"
	"testing"

	"regalloc/internal/dataflow"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ir"
	"regalloc/internal/irgen"
	"regalloc/internal/liverange"
	"regalloc/internal/parser"
	"regalloc/internal/sem"
)

// compileFuzz lowers a fuzzgen program straight through the front
// end. The test lives inside package ig (to drive buildSharded past
// the GOMAXPROCS cap), so it cannot use the root package's Compile —
// graphgen and the root both import ig.
func compileFuzz(t *testing.T, seed uint64) *ir.Func {
	t.Helper()
	src := fuzzgen.Generate(seed, fuzzgen.Config{MaxStmts: 60, MaxDepth: 3})
	astProg, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("seed %d: parse: %v", seed, err)
	}
	info, err := sem.Check(astProg)
	if err != nil {
		t.Fatalf("seed %d: check: %v", seed, err)
	}
	irProg, err := irgen.Gen(astProg, info, irgen.DefaultStaticStart)
	if err != nil {
		t.Fatalf("seed %d: lower: %v", seed, err)
	}
	f := irProg.Funcs[0]
	liverange.Renumber(f)
	return f
}

// giantBlock builds a function whose instruction count is
// concentrated in one straight-line block, the shape of generated
// numeric code (GRADNT and HSSIAN put >90% of the routine in a single
// block). Sharding it forces intra-block cuts.
func giantBlock(t *testing.T, n int) *ir.Func {
	t.Helper()
	f := &ir.Func{Name: "GIANT"}
	regs := make([]ir.Reg, 40)
	for i := range regs {
		regs[i] = f.NewReg(ir.ClassInt)
	}
	b := f.NewBlock()
	for i := range regs {
		b.Instrs = append(b.Instrs, ir.Instr{
			Op: ir.OpConst, Dst: regs[i],
			A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: int64(i),
		})
	}
	rng := uint64(7)
	for i := 0; i < n; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		d := regs[rng%uint64(len(regs))]
		a := regs[(rng>>8)%uint64(len(regs))]
		c := regs[(rng>>16)%uint64(len(regs))]
		if rng%5 == 0 {
			b.Instrs = append(b.Instrs, ir.Instr{
				Op: ir.OpMove, Dst: d, A: a, B: ir.NoReg, C: ir.NoReg,
			})
		} else {
			b.Instrs = append(b.Instrs, ir.Instr{
				Op: ir.OpAdd, Dst: d, A: a, B: c, C: ir.NoReg,
			})
		}
	}
	last := regs[0]
	b.Instrs = append(b.Instrs, ir.Instr{
		Op: ir.OpRet, Dst: ir.NoReg, A: last, B: ir.NoReg, C: ir.NoReg,
	})
	f.RecomputePreds()
	return f
}

// requireGraphsIdentical asserts byte-identical structure: same edge
// count and the same adjacency vectors in the same order (the order
// is what the simplify worklists tie-break on).
func requireGraphsIdentical(t *testing.T, want, got *Graph, label string) {
	t.Helper()
	if want.NumEdges() != got.NumEdges() {
		t.Fatalf("%s: edges %d != %d", label, got.NumEdges(), want.NumEdges())
	}
	for a := 0; a < want.NumNodes(); a++ {
		wn, gn := want.Neighbors(int32(a)), got.Neighbors(int32(a))
		if !reflect.DeepEqual(wn, gn) {
			// Empty vs nil both mean "no neighbors".
			if len(wn) == 0 && len(gn) == 0 {
				continue
			}
			t.Fatalf("%s: adjacency of node %d differs:\n seq %v\n par %v",
				label, a, wn, gn)
		}
	}
}

func buildForced(f *ir.Func, lv *dataflow.Liveness, shards int) *Graph {
	classes := make([]ir.Class, f.NumRegs())
	for i := range classes {
		classes[i] = f.RegClass(ir.Reg(i))
	}
	g := New(classes)
	total := 0
	for _, b := range f.Blocks {
		total += len(b.Instrs)
	}
	if shards > total {
		shards = total
	}
	buildSharded(g, f, lv, shards, total, nil)
	return g
}

// TestShardedBuildMatchesSequential is the determinism contract of
// the parallel build: for any shard count the merged graph must be
// byte-identical to the sequential one — adjacency order included.
// It deliberately bypasses the GOMAXPROCS cap so the sharded path is
// exercised even on single-CPU CI machines.
func TestShardedBuildMatchesSequential(t *testing.T) {
	funcs := []*ir.Func{giantBlock(t, 900)}
	for seed := uint64(1); seed <= 8; seed++ {
		funcs = append(funcs, compileFuzz(t, seed))
	}
	for fi, f := range funcs {
		lv := dataflow.ComputeLiveness(f)
		seq := BuildWithLiveness(f, lv, 1, nil)
		for _, shards := range []int{2, 3, 4, 7} {
			got := buildForced(f, lv, shards)
			requireGraphsIdentical(t, seq, got,
				fmt.Sprintf("func %d (%s) shards=%d", fi, f.Name, shards))
		}
	}
}

// TestSplitPiecesCovers: the shard work lists must tile the function —
// every instruction of every block in exactly one piece, pieces
// ascending by block within a shard.
func TestSplitPiecesCovers(t *testing.T) {
	f := giantBlock(t, 500)
	lv := dataflow.ComputeLiveness(f)
	total := 0
	for _, b := range f.Blocks {
		total += len(b.Instrs)
	}
	for _, shards := range []int{1, 2, 3, 4, 5, 16} {
		work := splitPieces(f, lv, shards, total)
		covered := make(map[int][]bool)
		for bi, b := range f.Blocks {
			covered[bi] = make([]bool, len(b.Instrs))
		}
		for s := range work {
			lastBlock := -1
			for _, p := range work[s] {
				if p.bi < lastBlock {
					t.Fatalf("shards=%d: shard %d pieces out of block order", shards, s)
				}
				lastBlock = p.bi
				for i := p.lo; i < p.hi; i++ {
					if covered[p.bi][i] {
						t.Fatalf("shards=%d: instr %d.%d covered twice", shards, p.bi, i)
					}
					covered[p.bi][i] = true
				}
			}
		}
		for bi, c := range covered {
			for i, ok := range c {
				if !ok {
					t.Fatalf("shards=%d: instr %d.%d never covered", shards, bi, i)
				}
			}
		}
	}
}
