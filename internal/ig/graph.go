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
// neighbor entries plus an n+1 offset table, compiled by Finalize
// from an insertion-ordered edge log. Per-row order is exactly the
// order edges were added — byte-identical to the per-node append
// vectors the package used before CSR — so simplify order, worklist
// tie-breaks, and final colors are unchanged; only the memory layout
// is (two flat slices instead of n headers and n growth-slack tails,
// which is what lets a 10^6-node graph fit and iterate at cache
// speed). The log is build scratch: it comes from a sync.Pool, and
// Finalize compiles it into an exactly sized CSR and puts it back, so
// a finalized graph owns no log and accepts no more edges.
//
// Membership is a square bit matrix up to bitMatrixLimit nodes, one
// row of ⌈n/64⌉ words per node (512 KiB at 2048 nodes, twice
// Chaitin's triangular matrix), and a flat open-addressing hash set
// of packed edge keys beyond it: 8 bytes per slot at ≤ 75% load, no
// per-entry boxing, in place of the Go map whose overhead dominated
// million-node builds. Whole rows are what let AddLiveEdges insert a
// definition against a live set a word at a time: the new neighbors
// among 64 candidates are live ∧ class(d) ∧ ¬row(d), one AND-NOT per
// word.
package ig

import (
	"fmt"
	"math/bits"
	"sync"

	"regalloc/internal/bitset"
	"regalloc/internal/ir"
)

// bitMatrixLimit bounds the dense membership representation: up to
// this many nodes the interference test uses the bit matrix; beyond
// it, the flat hash set of edge keys.
const bitMatrixLimit = 2048

// Graph is an interference graph over n live ranges. Interference
// testing uses the dual representation (bit matrix or flat edge set);
// iteration uses the CSR adjacency Finalize compiles from the edge
// log.
type Graph struct {
	n     int
	class []ir.Class

	nedges int
	words  int      // words per bit-matrix row
	rows   []uint64 // n rows of words each, nil when hashing
	// classMask[c] holds the nodes of class c, one row's width; nil
	// when hashing.
	classMask [ir.NumClasses][]uint64
	eset      edgeSet // flat open-addressing set, used when rows == nil

	// log holds the edges in insertion order until Finalize compiles
	// it; nil once the graph is finalized.
	log *edgeLog

	// CSR adjacency, valid once finalized: node a's neighbors are
	// csr[off[a]:off[a+1]], in edge-insertion order.
	off []int32
	csr []int32
}

// edgeLog is a graph's edges in insertion order: edge i joins e[2i]
// and e[2i+1].
type edgeLog struct{ e []int32 }

// edgeLogPool recycles edge logs across builds: a log lives only from
// New to Finalize, so a process building graph after graph (the
// Figure 4 cycle, the portfolio's candidates, allocd's workers) stops
// growing a fresh one for every graph.
var edgeLogPool = sync.Pool{New: func() any { return new(edgeLog) }}

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
		log:   edgeLogPool.Get().(*edgeLog),
	}
	if g.n <= bitMatrixLimit {
		w := (g.n + 63) / 64
		g.words = w
		// One allocation: the n rows, then one mask per class.
		buf := make([]uint64, (g.n+ir.NumClasses)*w)
		g.rows = buf[:g.n*w]
		for c := range g.classMask {
			g.classMask[c] = buf[(g.n+c)*w : (g.n+c+1)*w]
		}
		for v, c := range class {
			g.classMask[c][v/64] |= 1 << uint(v%64)
		}
	} else {
		g.eset.init(edgeHint)
	}
	if edgeHint > 0 && cap(g.log.e) < 2*edgeHint {
		g.log.e = make([]int32, 0, 2*edgeHint)
	}
	return g
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
// twice. It panics on a finalized graph.
func (g *Graph) AddEdge(a, b int32) {
	g.mustBuild()
	if a == b || g.class[a] != g.class[b] {
		return
	}
	if g.rows != nil {
		ra := g.rows[int(a)*g.words:]
		if ra[b/64]&(1<<uint(b%64)) != 0 {
			return
		}
		ra[b/64] |= 1 << uint(b%64)
		g.rows[int(b)*g.words+int(a/64)] |= 1 << uint(a%64)
	} else if !g.eset.insert(edgeKey(a, b)) {
		return
	}
	g.nedges++
	g.log.e = append(g.log.e, a, b)
}

// AddLiveEdges records an interference between d and every member of
// live except d itself and skip (-1 for none), in ascending order of
// the member: the same edges, in the same order, as calling
// AddEdge(d, l) for each such l in turn, so every adjacency row comes
// out as it would from that loop. On the bit matrix it takes the new
// neighbors a word at a time, live ∧ class(d) ∧ ¬row(d). live may
// cover fewer nodes than the graph (a machine graph's precolored nodes
// are never live). It panics on a finalized graph.
func (g *Graph) AddLiveEdges(d int32, live *bitset.Set, skip int32) {
	g.mustBuild()
	if g.rows == nil {
		live.ForEach(func(l int) {
			if int32(l) != skip {
				g.AddEdge(d, int32(l))
			}
		})
		return
	}
	w := g.words
	row := g.rows[int(d)*w : int(d)*w+w]
	mask := g.classMask[g.class[d]]
	dw, dbit := int(d/64), uint64(1)<<uint(d%64)
	sw, sbit := -1, uint64(0)
	if skip >= 0 {
		sw, sbit = int(skip/64), uint64(1)<<uint(skip%64)
	}
	e := g.log.e
	for i, x := range live.Words() {
		x &= mask[i] &^ row[i]
		if i == dw {
			x &^= dbit
		}
		if i == sw {
			x &^= sbit
		}
		if x == 0 {
			continue
		}
		row[i] |= x
		g.nedges += bits.OnesCount64(x)
		for base := int32(i * 64); x != 0; x &= x - 1 {
			l := base + int32(bits.TrailingZeros64(x))
			g.rows[int(l)*w+dw] |= dbit
			e = append(e, d, l)
		}
	}
	g.log.e = e
}

func (g *Graph) mustBuild() {
	if g.log == nil {
		panic("ig: edge added to a finalized graph")
	}
}

// Interfere reports whether a and b interfere.
func (g *Graph) Interfere(a, b int32) bool {
	if a == b {
		return false
	}
	if g.rows != nil {
		return g.rows[int(a)*g.words+int(b/64)]&(1<<uint(b%64)) != 0
	}
	return g.eset.has(edgeKey(a, b))
}

// Finalize compiles the edge log into an exactly sized CSR adjacency
// and returns the log to its pool; after it the graph accepts no more
// edges. The first query finalizes a graph that is not yet, but the
// builders call Finalize themselves, so that the compile stays out of
// the first timed query. A graph must be finalized before goroutines
// share it: two racing first queries would both return its log to the
// pool. Finalizing twice is a no-op.
func (g *Graph) Finalize() {
	if g.log == nil {
		return
	}
	e := g.log.e
	// Counting pass: off[a+1] accumulates a's degree.
	off := make([]int32, g.n+1)
	for _, a := range e {
		off[a+1]++
	}
	for i := 0; i < g.n; i++ {
		off[i+1] += off[i]
	}
	// Fill pass, replaying the log in insertion order: each edge
	// appends b to a's row and a to b's row exactly as the per-node
	// vectors did, so row order is byte-identical to the old layout.
	// off[a] is a's fill cursor, left at the start of row a+1.
	csr := make([]int32, len(e))
	for i := 0; i < len(e); i += 2 {
		a, b := e[i], e[i+1]
		csr[off[a]] = b
		off[a]++
		csr[off[b]] = a
		off[b]++
	}
	copy(off[1:], off[:g.n])
	off[0] = 0
	g.off, g.csr = off, csr
	g.log.e = e[:0]
	edgeLogPool.Put(g.log)
	g.log = nil
}

// Neighbors returns a's adjacency row. The caller must not modify
// it.
func (g *Graph) Neighbors(a int32) []int32 {
	if g.log != nil {
		g.Finalize()
	}
	return g.csr[g.off[a]:g.off[a+1]]
}

// Degree returns the full degree of a (ignoring any removals done by
// a Worklist).
func (g *Graph) Degree(a int32) int {
	if g.log != nil {
		g.Finalize()
	}
	return int(g.off[a+1] - g.off[a])
}

// MaxDegree returns the largest full degree in the graph (0 for an
// empty graph) in one pass over the offset table.
func (g *Graph) MaxDegree() int {
	if g.log != nil {
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
