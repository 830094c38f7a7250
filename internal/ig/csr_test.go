package ig

import (
	"fmt"
	"testing"

	"regalloc/internal/bitset"
	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
	"regalloc/internal/machine"
)

// legacyAdj is the pre-CSR adjacency representation: per-node append
// vectors fed by the same AddEdge stream. The CSR rows must be
// byte-identical to it — row order is what the simplify worklists
// tie-break on, so any divergence would silently change colorings.
type legacyAdj struct {
	class []ir.Class
	seen  map[uint64]bool
	adj   [][]int32
}

func newLegacyAdj(class []ir.Class) *legacyAdj {
	return &legacyAdj{class: class, seen: map[uint64]bool{}, adj: make([][]int32, len(class))}
}

func (l *legacyAdj) addEdge(a, b int32) {
	if a == b || l.class[a] != l.class[b] {
		return
	}
	k := edgeKey(a, b)
	if l.seen[k] {
		return
	}
	l.seen[k] = true
	l.adj[a] = append(l.adj[a], b)
	l.adj[b] = append(l.adj[b], a)
}

func requireMatchesLegacy(t *testing.T, g *Graph, l *legacyAdj, label string) {
	t.Helper()
	if err := l.diff(g); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// xorshift returns a deterministic pseudo-random stream seeded by n.
func xorshift(n int) func() uint64 {
	s := uint64(n)*0x9E3779B97F4A7C15 + 1
	return func() uint64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return s * 0x2545F4914F6CDD1D
	}
}

// mixedClasses returns n classes, every third one float.
func mixedClasses(n int) []ir.Class {
	classes := make([]ir.Class, n)
	for i := range classes {
		if i%3 == 2 {
			classes[i] = ir.ClassFloat
		}
	}
	return classes
}

// streamSizes straddle bitMatrixLimit, so the bit-matrix and flat-set
// membership paths are both covered.
var streamSizes = []int{1, 2, 37, 500, bitMatrixLimit, bitMatrixLimit + 1, 5000}

// TestCSRMatchesLegacyAdjacencyRandomStreams drives identical
// pseudo-random AddEdge streams (with duplicates, self edges, and
// cross-class pairs mixed in) into the CSR graph and the legacy
// model, at sizes on both sides of bitMatrixLimit.
func TestCSRMatchesLegacyAdjacencyRandomStreams(t *testing.T) {
	for _, n := range streamSizes {
		classes := mixedClasses(n)
		g := New(classes)
		l := newLegacyAdj(classes)
		next := xorshift(n)
		edges := 6 * n
		for i := 0; i < edges; i++ {
			a := int32(next() % uint64(n))
			b := int32(next() % uint64(n))
			g.AddEdge(a, b)
			l.addEdge(a, b)
			if g.Interfere(a, b) != (a != b && classes[a] == classes[b]) {
				t.Fatalf("n=%d: Interfere(%d,%d) disagrees with AddEdge contract", n, a, b)
			}
		}
		requireMatchesLegacy(t, g, l, "random stream")
	}
}

// TestAddLiveEdgesMatchesPerPairStream holds the word-at-a-time insert
// to the per-pair loop it replaces: pseudo-random definitions against
// pseudo-random live sets (the definition and the skipped register
// sometimes live, sometimes not; live sets narrower than the graph,
// as a machine graph's are), interleaved with single AddEdge calls,
// at sizes on both sides of bitMatrixLimit.
func TestAddLiveEdgesMatchesPerPairStream(t *testing.T) {
	for _, n := range streamSizes {
		classes := mixedClasses(n)
		g := New(classes)
		l := newLegacyAdj(classes)
		next := xorshift(n + 1)
		for i := 0; i < 40; i++ {
			width := n - int(next()%uint64(n/8+1))
			live := bitset.New(width)
			for j := int(next() % uint64(width/2+1)); j > 0; j-- {
				live.Add(int(next() % uint64(width)))
			}
			d := int32(next() % uint64(n))
			skip := int32(-1)
			if next()%2 == 0 {
				skip = int32(next() % uint64(n))
			}
			g.AddLiveEdges(d, live, skip)
			live.ForEach(func(v int) {
				if int32(v) != d && int32(v) != skip {
					l.addEdge(d, int32(v))
				}
			})
			a, b := int32(next()%uint64(n)), int32(next()%uint64(n))
			g.AddEdge(a, b)
			l.addEdge(a, b)
		}
		requireMatchesLegacy(t, g, l, fmt.Sprintf("live-set stream n=%d", n))
	}
}

// TestAddEdgeAfterFinalizePanics pins the build-scratch contract: the
// edge log goes back to its pool at Finalize, so a finalized graph
// accepts no more edges, by either insert.
func TestAddEdgeAfterFinalizePanics(t *testing.T) {
	for _, insert := range []func(g *Graph){
		func(g *Graph) { g.AddEdge(0, 1) },
		func(g *Graph) { g.AddLiveEdges(0, bitset.New(2), -1) },
	} {
		g := New(make([]ir.Class, 2))
		g.AddEdge(0, 1)
		g.Finalize()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("an edge added to a finalized graph did not panic")
				}
			}()
			insert(g)
		}()
	}
}

// TestCSRMatchesLegacyAdjacencyOnCorpus holds BuildWithLiveness and
// BuildWithMachine to their per-pair reference streams, replayed into
// the legacy model, on straight-line functions of the shape of
// generated numeric code.
func TestCSRMatchesLegacyAdjacencyOnCorpus(t *testing.T) {
	for _, size := range []int{40, 300, 900} {
		f := giantBlock(t, size)
		lv := dataflow.ComputeLiveness(f)
		if err := matchesReference(f, lv, nil, BuildWithLiveness(f, lv, 0, nil)); err != nil {
			t.Fatalf("giantBlock(%d): %v", size, err)
		}
		m := machine.RTPC()
		if err := matchesReference(f, lv, m, BuildWithMachine(f, lv, m, nil).Graph); err != nil {
			t.Fatalf("giantBlock(%d) on %s: %v", size, m.Name, err)
		}
	}
}

// giantBlock builds a function whose instruction count is
// concentrated in one straight-line block, the shape of generated
// numeric code (GRADNT and HSSIAN put >90% of the routine in a single
// block).
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

// TestMaxDegree pins the one-pass max-degree helper against the
// per-node scan it replaces.
func TestMaxDegree(t *testing.T) {
	classes := make([]ir.Class, 200)
	g := New(classes)
	s := uint64(99)
	for i := 0; i < 900; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		g.AddEdge(int32(s%200), int32((s>>16)%200))
	}
	want := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(int32(v)); d > want {
			want = d
		}
	}
	if got := g.MaxDegree(); got != want {
		t.Fatalf("MaxDegree = %d, want %d", got, want)
	}
}

// TestEdgeSetBasics covers the flat membership set directly: growth
// across several doublings, duplicate rejection, and absent-key
// lookups.
func TestEdgeSetBasics(t *testing.T) {
	var s edgeSet
	const n = 10_000
	for i := 1; i <= n; i++ {
		k := edgeKey(int32(i%1000), int32(i))
		if i%1000 == i {
			continue // self edge keys never occur; skip
		}
		if !s.insert(k) {
			t.Fatalf("insert(%d) reported duplicate on first insert", k)
		}
		if s.insert(k) {
			t.Fatalf("insert(%d) accepted a duplicate", k)
		}
		if !s.has(k) {
			t.Fatalf("has(%d) = false after insert", k)
		}
	}
	if s.has(edgeKey(123456, 654321)) {
		t.Fatal("has reported an absent key")
	}
}
