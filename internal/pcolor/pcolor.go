// Package pcolor is a speculative parallel graph colorer in the
// style of Rokos, Gorman & Kelly, "A Fast and Scalable Graph
// Coloring Algorithm for Multi-core and Many-core Architectures"
// (2015): nodes are partitioned across workers, every worker colors
// its share optimistically against a read-mostly shared assignment,
// conflicts on partition-boundary edges are detected after a
// barrier, and the (shrinking) conflict set is recolored in further
// rounds until a proper coloring remains.
//
// Unlike color.Run — which colors within a fixed budget k and spills
// the overflow — pcolor colors with an unbounded first-fit palette,
// so every node receives a color and the figure of merit is how many
// colors were needed. That makes it the right backend for
// the standalone-graph paths (cmd/regalloc's graph mode, cmd/bench's
// stress graphs, the experiments package), not for the allocator's
// Figure 4 cycle, where the sequential heuristics remain the
// default.
//
// Determinism: for a fixed (Seed, Workers) pair the result is
// byte-identical across runs. Each round partitions the pending
// nodes into Workers contiguous chunks of a seeded permutation;
// during speculation a worker sees only committed colors and the
// tentative colors of its *own* chunk, so no cross-worker read races
// with a write and the outcome cannot depend on scheduling. Conflict
// resolution is by permutation rank (lower rank wins), which is also
// schedule-independent.
//
// Termination: every round commits at least the minimum-rank node of
// each conflicting component (it loses to nobody), and every
// conflict-free pending node, so the pending set strictly shrinks;
// in practice a few rounds suffice (the Stats record and the
// "pcolor.round.*" trace counters make the iteration visible).
//
// A second round structure, JonesPlassmann, is available via
// Options.Algo: instead of speculating and repairing, each round
// colors the independent set of nodes all of whose higher-priority
// (lower-rank) neighbors are already committed. Two ready nodes are
// never adjacent — if they were, one would still be waiting on the
// other — so the round colors against committed state only and there
// are never conflicts to repair. The result is provably the
// sequential first-fit greedy coloring in permutation order, for any
// worker count, which makes the engine's output independent of
// Workers and exactly predictable by a one-line sequential oracle.
package pcolor

import (
	"fmt"
	"runtime"
	"sync"

	"regalloc/internal/color"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
)

// Algo selects the round structure of the parallel colorer.
type Algo int

const (
	// Speculative is the Rokos–Gorman–Kelly scheme described in the
	// package comment: color optimistically, detect boundary
	// conflicts, recolor the losers. The default.
	Speculative Algo = iota
	// JonesPlassmann colors in independent-set rounds: a node is
	// ready once every lower-rank neighbor is committed, and each
	// round colors all ready nodes in parallel against committed
	// state only. No conflicts ever arise (Stats.Conflicts and
	// Stats.Recolored are always 0) and the coloring equals the
	// sequential first-fit greedy in permutation order for any
	// Workers value.
	JonesPlassmann
)

// NumAlgos is the number of defined Algo values, for validation.
const NumAlgos = 2

// String names the algorithm for flags and reports.
func (a Algo) String() string {
	switch a {
	case Speculative:
		return "speculative"
	case JonesPlassmann:
		return "jp"
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// Options configures a parallel coloring run.
type Options struct {
	// Workers is the number of coloring goroutines; <= 0 means
	// GOMAXPROCS. The (Seed, Workers) pair fully determines the
	// coloring, so fix both for reproducible results. Under
	// JonesPlassmann the coloring depends on Seed alone.
	Workers int
	// Seed drives the node permutation that sets the processing
	// order, the partition boundaries, and the conflict priorities.
	Seed uint64
	// Algo picks the round structure; zero value is Speculative.
	Algo Algo
	// Tracer, when non-nil, receives per-round counters
	// (pcolor.round.pending, pcolor.round.conflicts) and run totals
	// (pcolor.rounds, pcolor.conflicts, pcolor.recolored,
	// pcolor.workers), all scoped to the color phase.
	Tracer *obs.Tracer
}

// Stats reports how the speculative iteration behaved.
type Stats struct {
	// Workers is the effective worker count after resolving <= 0.
	Workers int
	// Rounds is the number of speculate/detect rounds run (>= 1 for
	// a non-empty graph).
	Rounds int
	// Conflicts counts the boundary-edge conflicts detected across
	// all rounds (each conflicting edge counted once).
	Conflicts int
	// Recolored is the recolor work: nodes that lost a conflict and
	// had to be colored again in a later round.
	Recolored int
	// ColorsInt and ColorsFloat are the per-class palette sizes of
	// the final coloring (max color + 1; 0 when the class is empty).
	ColorsInt   int
	ColorsFloat int
}

// Colors returns the palette size for class c.
func (s *Stats) Colors(c ir.Class) int {
	if c == ir.ClassInt {
		return s.ColorsInt
	}
	return s.ColorsFloat
}

// Slack is the documented color-count slack of the speculative
// colorer: on the graphgen corpus, pcolor uses at most
// seq + Slack(seq) colors per class, where seq is the palette size
// of the sequential smallest-last heuristic (Sequential). The
// speculative first-fit order is a seeded permutation rather than
// the degree-aware smallest-last order, which costs a couple of
// colors on dense graphs; the differential tests pin this bound.
func Slack(seq int) int {
	s := seq / 4
	if s < 2 {
		return 2
	}
	return s
}

// Color colors g with an unbounded first-fit palette using the
// speculative parallel scheme and returns the assignment (indexed by
// node, always a proper coloring per color.Verify against
// KFor(stats)) together with the iteration stats.
func Color(g *ig.Graph, o Options) ([]int16, *Stats) {
	n := g.NumNodes()
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	st := &Stats{Workers: workers}
	colors := make([]int16, n)
	for i := range colors {
		colors[i] = color.NoColor
	}
	if n == 0 {
		emitTotals(o.Tracer, st)
		return colors, st
	}

	// Seeded permutation: processing order, partition boundaries, and
	// conflict priority (rank[v] = position of v in perm; lower rank
	// wins a conflict) all derive from it. The engine scratch — the
	// permutation buffers, the round state, and the per-worker
	// first-fit bitmaps — is pooled, so a warm process coloring graph
	// after graph pays only for the returned assignment.
	sc := scratchPool.Get().(*scratch)
	perm := sc.permutation(g, o.Seed)
	rank := growInt32s(sc.rank, n)
	sc.rank = rank
	for i, v := range perm {
		rank[v] = int32(i)
	}

	// Per-worker first-fit scratch: a node needs at most degree+1
	// colors, so maxDegree+2 cells always hold the scan.
	need := g.MaxDegree() + 2
	if cap(sc.used) < workers {
		sc.used = make([][]bool, workers)
	}
	sc.used = sc.used[:workers]
	for w := range sc.used {
		if cap(sc.used[w]) < need {
			sc.used[w] = make([]bool, need)
		}
		sc.used[w] = sc.used[w][:need]
	}

	if o.Algo == JonesPlassmann {
		colorJP(g, o, st, colors, perm, rank, sc, workers)
	} else {
		colorSpeculative(g, o, st, colors, perm, rank, sc, workers)
	}
	scratchPool.Put(sc)

	for v := int32(0); v < int32(n); v++ {
		pal := &st.ColorsInt
		if g.Class(v) == ir.ClassFloat {
			pal = &st.ColorsFloat
		}
		if c := int(colors[v]) + 1; c > *pal {
			*pal = c
		}
	}
	emitTotals(o.Tracer, st)
	return colors, st
}

// colorSpeculative runs the Rokos–Gorman–Kelly speculate/detect
// rounds of the package comment. colors is the committed assignment
// (all NoColor on entry); perm/rank set the processing order and the
// conflict priority.
func colorSpeculative(g *ig.Graph, o Options, st *Stats, colors []int16, perm, rank []int32, sc *scratch, workers int) {
	n := g.NumNodes()

	// Round-stamped speculation state. stamp[v] == round marks v as
	// pending this round; tent[v] is then its tentative color and
	// owner[v] the chunk that colored it. Only stamp needs a real
	// reset: round numbers restart at 1 on every run, so a stale
	// stamp from a previous (pooled) run could alias round 1, while
	// tent/owner/lost are (re)written for each pending node before
	// any stamp-guarded read can reach them.
	tent := growInt16s(sc.tent, n)
	sc.tent = tent
	stamp := growInt32s(sc.stamp, n)
	sc.stamp = stamp
	owner := growInt32s(sc.owner, n)
	sc.owner = owner
	lost := growBools(sc.lost, n)
	sc.lost = lost
	for i := range stamp {
		stamp[i] = 0
	}
	scratch := sc.used

	pending := perm
	for round := int32(1); len(pending) > 0; round++ {
		st.Rounds++
		if st.Rounds > 1 {
			st.Recolored += len(pending)
		}
		chunks := chunkBounds(len(pending), workers)

		// Reset the round state sequentially before any goroutine
		// starts: stamp/owner/lost/tent become read-only (or
		// owner-written-only) during the parallel phases, so no read
		// of a neighbor's state can race with a write.
		for w := 0; w < len(chunks)-1; w++ {
			for _, v := range pending[chunks[w]:chunks[w+1]] {
				stamp[v] = round
				owner[v] = int32(w)
				lost[v] = false
				tent[v] = color.NoColor
			}
		}

		// Phase 1 — speculate: each worker first-fit colors its chunk
		// against the committed assignment plus the tentatives of its
		// *own* chunk's already-processed nodes (tent[u] >= 0 with the
		// same owner). colors[] is read-only here; tent is written
		// only for nodes the worker owns, so the one cross-chunk read
		// (the owner check) touches data frozen before the round.
		var wg sync.WaitGroup
		for w := 0; w < len(chunks)-1; w++ {
			lo, hi := chunks[w], chunks[w+1]
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(w int, chunk []int32) {
				defer wg.Done()
				used := scratch[w]
				for _, v := range chunk {
					deg := g.Degree(v)
					lim := int16(deg + 1) // first-fit needs at most deg+1 colors
					for c := int16(0); c <= lim; c++ {
						used[c] = false
					}
					for _, u := range g.Neighbors(v) {
						if c := colors[u]; c >= 0 && c <= lim {
							used[c] = true
						}
						if owner[u] == int32(w) && stamp[u] == round {
							if c := tent[u]; c >= 0 && c <= lim {
								used[c] = true
							}
						}
					}
					for c := int16(0); c <= lim; c++ {
						if !used[c] {
							tent[v] = c
							break
						}
					}
				}
			}(w, pending[lo:hi])
		}
		wg.Wait()

		// Phase 2 — detect & commit: a pending node conflicts when a
		// neighbor pending in another chunk picked the same tentative
		// color; the higher rank loses and is recolored next round.
		// Winners commit (colors[] writes race with nothing: this
		// phase reads only tent/stamp/rank).
		conflicts := make([]int, len(chunks)-1)
		for w := 0; w < len(chunks)-1; w++ {
			lo, hi := chunks[w], chunks[w+1]
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(w int, chunk []int32) {
				defer wg.Done()
				for _, v := range chunk {
					for _, u := range g.Neighbors(v) {
						if stamp[u] != round || tent[u] != tent[v] {
							continue
						}
						// One conflicting edge, counted once: the loser
						// (higher rank) records it.
						if rank[u] < rank[v] {
							conflicts[w]++
							lost[v] = true
						}
					}
					if !lost[v] {
						colors[v] = tent[v]
					}
				}
			}(w, pending[lo:hi])
		}
		wg.Wait()

		roundConflicts := 0
		for _, c := range conflicts {
			roundConflicts += c
		}
		st.Conflicts += roundConflicts
		if tr := o.Tracer; tr.Enabled() {
			tr.Counter(obs.PhaseColor, "pcolor.round.pending", int64(len(pending)))
			tr.Counter(obs.PhaseColor, "pcolor.round.conflicts", int64(roundConflicts))
		}

		// Losers, in permutation order, are the next round's pending
		// set (the order is scan order, so determinism is preserved).
		var next []int32
		for _, v := range pending {
			if lost[v] {
				next = append(next, v)
			}
		}
		pending = next
	}
}

// colorJP runs the Jones–Plassmann independent-set rounds: a node is
// ready when wait[v] — its count of uncommitted lower-rank neighbors
// — reaches zero. The ready set of any round is independent (two
// adjacent ready nodes would each be waiting on the other's rank),
// so the parallel first-fit reads committed colors only and never
// needs repair. By induction on rank, every node is colored first-fit
// against exactly the final colors of its lower-rank neighbors, which
// is the sequential greedy coloring in permutation order — for any
// worker count. TestJonesPlassmannMatchesGreedyOracle pins that.
func colorJP(g *ig.Graph, o Options, st *Stats, colors []int16, perm, rank []int32, sc *scratch, workers int) {
	n := g.NumNodes()
	wait := growInt32s(sc.wait, n)
	sc.wait = wait
	cur := sc.ready[:0]
	for _, v := range perm {
		w := int32(0)
		for _, u := range g.Neighbors(v) {
			if rank[u] < rank[v] {
				w++
			}
		}
		wait[v] = w
		if w == 0 {
			cur = append(cur, v)
		}
	}
	nxt := sc.next[:0]
	var wg sync.WaitGroup
	for len(cur) > 0 {
		st.Rounds++
		chunks := chunkBounds(len(cur), workers)
		for w := 0; w < len(chunks)-1; w++ {
			lo, hi := chunks[w], chunks[w+1]
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(w int, chunk []int32) {
				defer wg.Done()
				used := sc.used[w]
				for _, v := range chunk {
					lim := int16(g.Degree(v) + 1)
					for c := int16(0); c <= lim; c++ {
						used[c] = false
					}
					for _, u := range g.Neighbors(v) {
						if c := colors[u]; c >= 0 && c <= lim {
							used[c] = true
						}
					}
					for c := int16(0); c <= lim; c++ {
						if !used[c] {
							colors[v] = c
							break
						}
					}
				}
			}(w, cur[lo:hi])
		}
		wg.Wait()
		if tr := o.Tracer; tr.Enabled() {
			tr.Counter(obs.PhaseColor, "pcolor.round.pending", int64(len(cur)))
			tr.Counter(obs.PhaseColor, "pcolor.round.conflicts", 0)
		}

		// Decrement the wait counts of higher-rank neighbors; those
		// reaching zero form the next round's independent set. Each
		// directed edge is walked exactly once across the whole run,
		// so this sequential phase is O(E) in total.
		nxt = nxt[:0]
		for _, v := range cur {
			for _, u := range g.Neighbors(v) {
				if rank[u] > rank[v] {
					wait[u]--
					if wait[u] == 0 {
						nxt = append(nxt, u)
					}
				}
			}
		}
		cur, nxt = nxt, cur
	}
	sc.ready, sc.next = cur, nxt
}

func emitTotals(tr *obs.Tracer, st *Stats) {
	if !tr.Enabled() {
		return
	}
	tr.Counter(obs.PhaseColor, "pcolor.workers", int64(st.Workers))
	tr.Counter(obs.PhaseColor, "pcolor.rounds", int64(st.Rounds))
	tr.Counter(obs.PhaseColor, "pcolor.conflicts", int64(st.Conflicts))
	tr.Counter(obs.PhaseColor, "pcolor.recolored", int64(st.Recolored))
}

// scratch holds the engine's reusable per-run state: permutation
// buffers, speculation round state, Jones–Plassmann wait counts and
// ready sets, and the per-worker first-fit bitmaps. Pooled via
// scratchPool so repeated colorings (the portfolio racer, a warm
// allocd process, the bench sweeps) stop allocating the O(n) arrays.
type scratch struct {
	shuffled []int32
	count    []int
	perm     []int32
	rank     []int32

	// Speculative round state.
	tent  []int16
	stamp []int32
	owner []int32
	lost  []bool

	// Jones–Plassmann round state.
	wait  []int32
	ready []int32
	next  []int32

	used [][]bool // per-worker first-fit bitmaps
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growInt16s(s []int16, n int) []int16 {
	if cap(s) < n {
		return make([]int16, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// permutation returns the processing order: degree-descending (the
// Welsh–Powell order, whose first-fit palette tracks smallest-last
// closely — a uniformly random order costs ~30% more colors on dense
// G(n,p)), with ties broken by a seeded Fisher–Yates shuffle. The
// shuffle uses the same xorshift64* generator as package graphgen so
// corpora stay reproducible across packages. The returned slice
// aliases the scratch.
func (sc *scratch) permutation(g *ig.Graph, seed uint64) []int32 {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	s := seed
	next := func() uint64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return s * 0x2545F4914F6CDD1D
	}
	n := g.NumNodes()
	shuffled := growInt32s(sc.shuffled, n)
	sc.shuffled = shuffled
	for i := range shuffled {
		shuffled[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	// Stable counting sort by degree, descending: O(n + maxdeg),
	// cheaper than a comparison sort on the timed path.
	maxDeg := g.MaxDegree()
	count := growInts(sc.count, maxDeg+1)
	sc.count = count
	for i := range count {
		count[i] = 0
	}
	for _, v := range shuffled {
		count[maxDeg-g.Degree(v)]++
	}
	start := 0
	for d := range count {
		c := count[d]
		count[d] = start
		start += c
	}
	perm := growInt32s(sc.perm, n)
	sc.perm = perm
	for _, v := range shuffled {
		slot := maxDeg - g.Degree(v)
		perm[count[slot]] = v
		count[slot]++
	}
	return perm
}

// chunkBounds splits length items into at most workers contiguous
// chunks, returning the boundary offsets (len = chunks+1). The split
// depends only on (length, workers), keeping partitioning — and
// therefore the coloring — schedule-independent.
func chunkBounds(length, workers int) []int {
	if workers > length {
		workers = length
	}
	bounds := make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		bounds[w] = w * length / workers
	}
	return bounds
}

// KFor returns the color.K bound matching a finished pcolor run, for
// verifying the assignment with color.Verify.
func KFor(st *Stats) color.K {
	return func(c ir.Class) int {
		n := st.Colors(c)
		if n < 1 {
			n = 1 // color.Verify requires a positive bound even for empty classes
		}
		return n
	}
}

// Sequential is the sequential comparator: smallest-last
// simplification (Matula–Beck) with an unbounded optimistic select —
// exactly what color.Run degenerates to when k exceeds every degree.
// It returns the assignment and its stats (Workers and Rounds forced
// to 1, no conflicts), so callers can compare palette sizes and wall
// time against the speculative engine.
func Sequential(g *ig.Graph) ([]int16, *Stats) {
	n := g.NumNodes()
	kf := func(ir.Class) int { return n + 1 }
	costs := make([]float64, n)
	out := color.Run(nil, g, nil, costs, kf, color.MatulaBeck, color.CostOverDegree, nil)
	colors := out.Colors
	if len(out.Spilled) != 0 {
		// k = n+1 exceeds any degree, so optimistic select cannot fail.
		panic("pcolor: sequential baseline left nodes uncolored")
	}
	st := &Stats{Workers: 1, Rounds: 1}
	for v := int32(0); v < int32(n); v++ {
		pal := &st.ColorsInt
		if g.Class(v) == ir.ClassFloat {
			pal = &st.ColorsFloat
		}
		if c := int(colors[v]) + 1; c > *pal {
			*pal = c
		}
	}
	return colors, st
}
