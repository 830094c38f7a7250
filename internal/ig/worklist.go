package ig

import "regalloc/internal/ir"

// Worklist is the Matula–Beck degree-bucket structure (§2.2 of the
// paper): an array N where N[i] heads a doubly-linked list of the
// remaining nodes with exactly i remaining neighbors. Finding a
// minimum-degree node is a forward scan of N; removing a node moves
// each neighbor down one bucket. The paper's refinement — after
// removing a node from N[i], resume scanning at N[i-1] — is
// implemented by tracking the lowest bucket that may be non-empty.
//
// A Worklist covers the nodes of a single register class; the two
// classes form disjoint subgraphs and are simplified independently.
type Worklist struct {
	g       *Graph
	cls     ir.Class
	in      []bool  // node belongs to this worklist's class
	removed []bool  // node has been removed (simplified or spilled)
	degree  []int32 // current degree among remaining nodes

	head       []int32 // bucket heads by degree; -1 = empty
	next, prev []int32 // intrusive list links; -1 = none

	remaining int
	scanFrom  int32 // lowest possibly-non-empty bucket

	// ScanSteps counts bucket cells inspected, to verify the
	// linear-work bound (total scan work <= |V| + 2|E|).
	ScanSteps int
}

// Init (re)builds the bucket structure for the nodes of class cls in
// g, reusing the worklist's backing slices when they are big enough.
// A Worklist held in per-pass scratch (color.Scratch) is re-Inited
// every pass, so the steady-state simplification phase allocates
// nothing.
func (w *Worklist) Init(g *Graph, cls ir.Class) {
	w.InitPre(g, cls, nil)
}

// InitPre is Init over a graph with precolored nodes: a node with
// pre[n] >= 0 stays out of the worklist entirely — it is never
// returned by MinDegreeNode, never counted in Remaining, and (being
// never Removed) its contribution to every neighbor's degree never
// decays, which is exactly the "infinite degree" treatment precolored
// nodes need during simplification. A nil pre is the plain Init.
func (w *Worklist) InitPre(g *Graph, cls ir.Class, pre []int16) {
	n := g.NumNodes()
	w.g = g
	w.cls = cls
	w.remaining = 0
	w.scanFrom = 0
	w.ScanSteps = 0
	w.in = growBool(w.in, n)
	w.removed = growBool(w.removed, n)
	w.degree = growInt32(w.degree, n)
	w.head = growInt32(w.head, n+1)
	w.next = growInt32(w.next, n)
	w.prev = growInt32(w.prev, n)
	for i := range w.head {
		w.head[i] = -1
	}
	for i := 0; i < n; i++ {
		w.next[i] = -1
		w.prev[i] = -1
		w.in[i] = false
		w.removed[i] = false
		if g.Class(int32(i)) != cls {
			continue
		}
		if pre != nil && pre[i] >= 0 {
			continue
		}
		w.in[i] = true
		w.degree[i] = int32(g.Degree(int32(i)))
		w.pushBucket(int32(i))
		w.remaining++
	}
}

// growBool returns a length-n slice reusing s's backing array when it
// is big enough (contents are unspecified; callers reset them).
func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Remaining returns the number of nodes not yet removed.
func (w *Worklist) Remaining() int { return w.remaining }

// Degree returns the current degree of node a among remaining nodes.
func (w *Worklist) Degree(a int32) int32 { return w.degree[a] }

// Removed reports whether a has been removed.
func (w *Worklist) Removed(a int32) bool { return w.removed[a] }

// InClass reports whether a belongs to this worklist's class. With
// Removed it lets hot loops enumerate remaining nodes directly,
// without the closure ForEachRemaining costs per call.
func (w *Worklist) InClass(a int32) bool { return w.in[a] }

// NumNodes returns the node count of the underlying graph.
func (w *Worklist) NumNodes() int { return len(w.in) }

func (w *Worklist) pushBucket(a int32) {
	d := w.degree[a]
	h := w.head[d]
	w.next[a] = h
	w.prev[a] = -1
	if h >= 0 {
		w.prev[h] = a
	}
	w.head[d] = a
}

func (w *Worklist) unlink(a int32) {
	d := w.degree[a]
	if w.prev[a] >= 0 {
		w.next[w.prev[a]] = w.next[a]
	} else {
		w.head[d] = w.next[a]
	}
	if w.next[a] >= 0 {
		w.prev[w.next[a]] = w.prev[a]
	}
	w.next[a] = -1
	w.prev[a] = -1
}

// Remove deletes node a from the graph view: a leaves its bucket and
// each remaining neighbor of a's class moves down one bucket.
func (w *Worklist) Remove(a int32) {
	if w.removed[a] || !w.in[a] {
		panic("ig: Remove of absent node")
	}
	w.unlink(a)
	w.removed[a] = true
	w.remaining--
	for _, nb := range w.g.Neighbors(a) {
		if w.removed[nb] || !w.in[nb] {
			continue
		}
		w.unlink(nb)
		w.degree[nb]--
		w.pushBucket(nb)
		if w.degree[nb] < w.scanFrom {
			w.scanFrom = w.degree[nb]
		}
	}
}

// MinDegreeNode returns a remaining node of minimum degree, or -1
// when the worklist is empty. Nodes in a bucket are returned in
// last-in-first-out order; determinism follows from the fixed
// construction order.
//
// scanFrom is always >= 0: it starts at zero and only ever moves
// down to a neighbor's decremented degree, and degrees are
// non-negative. The resume-at-scanFrom refinement is what gives the
// Matula–Beck bound of at most |V| + 2|E| bucket cells inspected
// over a full simplification (each Remove lowers scanFrom by at most
// deg(node) in total), which TestScanWorkBound pins.
func (w *Worklist) MinDegreeNode() int32 {
	if w.remaining == 0 {
		return -1
	}
	for d := w.scanFrom; int(d) < len(w.head); d++ {
		w.ScanSteps++
		if h := w.head[d]; h >= 0 {
			w.scanFrom = d
			return h
		}
	}
	return -1
}

// ForEachRemaining calls f for every node still in the worklist, in
// increasing node order (the deterministic tie-break of the paper's
// footnote 4).
func (w *Worklist) ForEachRemaining(f func(a int32)) {
	for i := range w.in {
		if w.in[i] && !w.removed[i] {
			f(int32(i))
		}
	}
}
