// Package ig implements the interference graph and the degree-bucket
// removal machinery of Matula and Beck that both coloring heuristics
// use for their linear-time simplification scans.
//
// Following Chaitin's implementation notes, the graph keeps a dual
// representation: a membership structure for O(1) interference tests
// and adjacency for iteration. Nodes are virtual registers; an edge
// joins two live ranges that are simultaneously live. Registers of
// different classes (integer vs floating point) never interfere —
// they compete for different register files.
//
// # Storage layout
//
// Adjacency is CSR (compressed sparse row): one flat []int32 of
// neighbor entries plus an n+1 offset table, built from an
// insertion-ordered edge log the first time a neighbor query arrives
// after an AddEdge. Per-row order is exactly the order edges were
// added — byte-identical to the per-node append vectors the package
// used before CSR — so simplify order, worklist tie-breaks, and
// final colors are unchanged; only the memory layout is (two flat
// slices instead of n headers and n growth-slack tails, which is
// what lets a 10^6-node graph fit and iterate at cache speed).
//
// Membership is a triangular bit matrix up to bitMatrixLimit nodes
// (Chaitin's actual data structure — n(n-1)/2 bits is 256 KiB at
// 2048 nodes) and a flat open-addressing hash set of packed edge
// keys beyond it: 8 bytes per slot at ≤ 75% load, no per-entry
// boxing, in place of the Go map whose overhead dominated
// million-node builds.
package ig

import (
	"fmt"
	"math/bits"

	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
)

// bitMatrixLimit bounds the dense membership representation: up to
// this many nodes the interference test uses a triangular bit matrix;
// beyond it, the flat hash set of edge keys.
const bitMatrixLimit = 2048

// Graph is an interference graph over n live ranges. Interference
// testing uses the dual representation (bit matrix or flat edge set);
// iteration uses CSR adjacency built lazily from the edge log.
type Graph struct {
	n     int
	class []ir.Class

	nedges int
	bits   []uint64 // triangular bit matrix, nil when hashing
	eset   edgeSet  // flat open-addressing set, used when bits == nil

	// Edge log in insertion order; the source of truth the CSR is
	// compiled from.
	ea, eb []int32

	// CSR adjacency, valid while !dirty: node a's neighbors are
	// csr[off[a]:off[a+1]], in edge-insertion order.
	off   []int32
	csr   []int32
	dirty bool
}

// New returns an empty graph whose node classes are given by class.
func New(class []ir.Class) *Graph {
	return NewSized(class, 0)
}

// NewSized is New with a capacity hint for the expected edge count,
// pre-sizing the edge log and the membership set so bulk builders
// (graphgen's scale tier) do not pay growth rehashes on the way to
// millions of edges. edgeHint <= 0 means no
// hint.
func NewSized(class []ir.Class, edgeHint int) *Graph {
	g := &Graph{
		n:     len(class),
		class: class,
		dirty: true,
	}
	if g.n <= bitMatrixLimit {
		g.bits = make([]uint64, (g.n*(g.n-1)/2+63)/64)
	} else {
		g.eset.init(edgeHint)
	}
	if edgeHint > 0 {
		g.ea = make([]int32, 0, edgeHint)
		g.eb = make([]int32, 0, edgeHint)
	}
	return g
}

// triIndex maps an unordered pair (a < b) to its bit position in the
// lower-triangular matrix.
func triIndex(a, b int32) int {
	// row b (b >= 1) starts at b(b-1)/2.
	return int(b)*(int(b)-1)/2 + int(a)
}

// NumNodes returns the number of nodes (live ranges).
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of interference edges.
func (g *Graph) NumEdges() int { return g.nedges }

// Class returns the register class of node a.
func (g *Graph) Class(a int32) ir.Class { return g.class[a] }

func edgeKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// AddEdge records an interference between a and b. Self-edges and
// cross-class pairs are ignored; duplicate edges are not recorded
// twice.
func (g *Graph) AddEdge(a, b int32) {
	if a == b || g.class[a] != g.class[b] {
		return
	}
	if g.bits != nil {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		i := triIndex(lo, hi)
		if g.bits[i/64]&(1<<uint(i%64)) != 0 {
			return
		}
		g.bits[i/64] |= 1 << uint(i%64)
	} else if !g.eset.insert(edgeKey(a, b)) {
		return
	}
	g.nedges++
	g.ea = append(g.ea, a)
	g.eb = append(g.eb, b)
	g.dirty = true
}

// Interfere reports whether a and b interfere.
func (g *Graph) Interfere(a, b int32) bool {
	if a == b {
		return false
	}
	if g.bits != nil {
		if a > b {
			a, b = b, a
		}
		i := triIndex(a, b)
		return g.bits[i/64]&(1<<uint(i%64)) != 0
	}
	return g.eset.has(edgeKey(a, b))
}

// Finalize compiles the edge log into the CSR adjacency. Queries do
// this lazily, so calling Finalize is never required — but doing it
// once after the build phase keeps the compile out of the first timed
// (or concurrent) query. Further AddEdge calls mark the CSR stale
// and the next query (or Finalize) recompiles it.
func (g *Graph) Finalize() {
	if !g.dirty {
		return
	}
	// Counting pass: off[a+1] accumulates a's degree.
	if cap(g.off) < g.n+1 {
		g.off = make([]int32, g.n+1)
	} else {
		g.off = g.off[:g.n+1]
		for i := range g.off {
			g.off[i] = 0
		}
	}
	for i := range g.ea {
		g.off[g.ea[i]+1]++
		g.off[g.eb[i]+1]++
	}
	for i := 0; i < g.n; i++ {
		g.off[i+1] += g.off[i]
	}
	// Fill pass, replaying the log in insertion order: each edge
	// appends b to a's row and a to b's row exactly as the per-node
	// vectors did, so row order is byte-identical to the old layout.
	total := int(g.off[g.n])
	if cap(g.csr) < total {
		g.csr = make([]int32, total)
	} else {
		g.csr = g.csr[:total]
	}
	cur := make([]int32, g.n)
	for i := range g.ea {
		a, b := g.ea[i], g.eb[i]
		g.csr[g.off[a]+cur[a]] = b
		cur[a]++
		g.csr[g.off[b]+cur[b]] = a
		cur[b]++
	}
	g.dirty = false
}

// Neighbors returns a's adjacency row. The caller must not modify
// it, and must not hold it across a later AddEdge (which recompiles
// the CSR).
func (g *Graph) Neighbors(a int32) []int32 {
	if g.dirty {
		g.Finalize()
	}
	return g.csr[g.off[a]:g.off[a+1]]
}

// Degree returns the full degree of a (ignoring any removals done by
// a Worklist).
func (g *Graph) Degree(a int32) int {
	if g.dirty {
		g.Finalize()
	}
	return int(g.off[a+1] - g.off[a])
}

// MaxDegree returns the largest full degree in the graph (0 for an
// empty graph) in one pass over the offset table.
func (g *Graph) MaxDegree() int {
	if g.dirty {
		g.Finalize()
	}
	max := int32(0)
	for a := 0; a < g.n; a++ {
		if d := g.off[a+1] - g.off[a]; d > max {
			max = d
		}
	}
	return int(max)
}

// Build constructs the interference graph of f. A register defined
// at a point interferes with every register (of its class) live
// after that point, except — for a copy instruction — the copy's
// source. That exception is Chaitin's: the move dst/src pair should
// be coalescable, not conflicting, when dst's value is just src's.
//
// Build computes liveness from scratch; callers holding a current
// liveness (the allocator's per-pass cache) should use
// BuildWithLiveness.
func Build(f *ir.Func) *Graph {
	return BuildWithLiveness(f, dataflow.ComputeLiveness(f), 0, nil)
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("ig.Graph{nodes: %d, edges: %d}", g.n, g.nedges)
}

// edgeSet is a flat open-addressing hash set of packed edge keys
// (linear probing, power-of-two capacity, grown at 75% load). Keys
// are edgeKey values, which are never zero — the packed low half is
// the larger endpoint of a non-self edge, so it is at least 1 — which
// frees zero to mean "empty slot". Compared to map[uint64]struct{}
// it stores 8 bytes per slot with no per-entry allocation, which is
// the difference between fitting a 10^7-edge membership set in
// memory and not.
type edgeSet struct {
	slots []uint64
	used  int
}

const edgeSetMinSlots = 1024

func (s *edgeSet) init(hint int) {
	n := edgeSetMinSlots
	if hint > 0 {
		// Size for hint keys at < 75% load.
		for n < hint+hint/2 {
			n <<= 1
		}
	}
	s.slots = make([]uint64, n)
	s.used = 0
}

// slot returns the starting probe index for key k.
func (s *edgeSet) slot(k uint64) int {
	// Fibonacci hashing spreads the packed (a,b) keys, whose low bits
	// are consecutive node numbers, across the table.
	return int((k * 0x9E3779B97F4A7C15) >> (64 - uint(bits.TrailingZeros(uint(len(s.slots))))))
}

func (s *edgeSet) has(k uint64) bool {
	if len(s.slots) == 0 {
		return false
	}
	mask := len(s.slots) - 1
	for i := s.slot(k); ; i = (i + 1) & mask {
		v := s.slots[i]
		if v == k {
			return true
		}
		if v == 0 {
			return false
		}
	}
}

// insert adds k and reports whether it was new.
func (s *edgeSet) insert(k uint64) bool {
	if len(s.slots) == 0 {
		s.init(0)
	}
	if 4*(s.used+1) > 3*len(s.slots) {
		s.grow()
	}
	mask := len(s.slots) - 1
	for i := s.slot(k); ; i = (i + 1) & mask {
		v := s.slots[i]
		if v == k {
			return false
		}
		if v == 0 {
			s.slots[i] = k
			s.used++
			return true
		}
	}
}

func (s *edgeSet) grow() {
	old := s.slots
	s.slots = make([]uint64, 2*len(old))
	s.used = 0
	for _, k := range old {
		if k != 0 {
			s.insert(k)
		}
	}
}
