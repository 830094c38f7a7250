package ig

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"regalloc/internal/bitset"
	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
)

// minParallelInstrs is the smallest function (by instruction count)
// worth sharding: below it the goroutine handoff and the merge
// bookkeeping cost more than the enumeration saves.
const minParallelInstrs = 256

// effectiveShards caps a worker request at the parallelism actually
// available: sharding beyond GOMAXPROCS only interleaves goroutines
// on the same cores, paying the buffering and merge overhead with no
// compensating wall-time win. The sharded and sequential paths build
// byte-identical graphs, so the cap never changes results.
func effectiveShards(workers, total int) int {
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	if workers > total {
		workers = total
	}
	return workers
}

// BuildWithLiveness constructs the interference graph of f reusing a
// precomputed liveness (which must describe f's current registers —
// any renumbering or rewriting since lv was computed invalidates it).
// This is the allocator's per-pass analysis-cache entry point: the
// Figure 4 cycle computes liveness once per pass and threads it
// through coalescing and graph construction instead of recomputing it
// at every build.
//
// For workers > 1 the edge enumeration is sharded across a worker
// pool; the shards are merged deterministically in enumeration-stream
// order, so the resulting graph — adjacency vectors included, and
// therefore simplify order, worklist tie-breaks, and final colors —
// is byte-identical to the sequential build. A nil tracer disables
// the build counters.
func BuildWithLiveness(f *ir.Func, lv *dataflow.Liveness, workers int, tr *obs.Tracer) *Graph {
	classes := make([]ir.Class, f.NumRegs())
	for i := range classes {
		classes[i] = f.RegClass(ir.Reg(i))
	}
	g := New(classes)
	total := 0
	for _, b := range f.Blocks {
		total += len(b.Instrs)
	}
	if shards := effectiveShards(workers, total); shards > 1 && total >= minParallelInstrs {
		buildSharded(g, f, lv, shards, total, tr)
	} else {
		buildSequential(g, f, lv, tr)
	}
	// Compile the CSR now, while the build phase owns the graph: the
	// first consumer query may come from inside a timed phase or a
	// concurrent pcolor worker.
	g.Finalize()
	return g
}

// piece is a contiguous instruction range [lo, hi) of one block. The
// sequential enumeration stream visits pieces in (block ascending,
// lo descending) order — descending because LiveAcross walks each
// block backward — and each piece's instructions from hi-1 down to
// lo. Sharding hands each worker a run of pieces that is contiguous
// in *ascending* instruction space; the merge re-serializes buffers
// in stream order, restoring the exact sequential edge order.
type piece struct {
	bi       int
	lo, hi   int
	liveAtHi *bitset.Set // live after instr hi-1; nil = block live-out
}

// enumeratePiece walks one piece's instructions backward and reports
// every candidate interference (def × live-after, minus the defined
// register itself and a move's source) to emit. It is the single
// definition of the enumeration both build paths share.
func enumeratePiece(f *ir.Func, lv *dataflow.Liveness, p piece, emit func(d, l int32)) {
	b := f.Blocks[p.bi]
	lv.LiveAcrossRange(f, b, p.lo, p.hi, p.liveAtHi, func(_ int, in *ir.Instr, liveAfter *bitset.Set) {
		d := in.Def()
		if d == ir.NoReg {
			return
		}
		moveSrc := ir.NoReg
		if in.IsMove() {
			moveSrc = in.A
		}
		liveAfter.ForEach(func(l int) {
			if ir.Reg(l) != d && ir.Reg(l) != moveSrc {
				emit(int32(d), int32(l))
			}
		})
	})
}

// wholeBlock is the piece covering all of block bi.
func wholeBlock(f *ir.Func, bi int) piece {
	return piece{bi: bi, lo: 0, hi: len(f.Blocks[bi].Instrs)}
}

// buildSequential is the single-threaded enumeration: every candidate
// goes straight into the graph, which dedups via its bit-matrix/hash
// dual.
func buildSequential(g *Graph, f *ir.Func, lv *dataflow.Liveness, tr *obs.Tracer) {
	attempts := 0
	for bi := range f.Blocks {
		enumeratePiece(f, lv, wholeBlock(f, bi), func(d, l int32) {
			attempts++
			g.AddEdge(d, l)
		})
	}
	if tr.Enabled() {
		tr.Counter(obs.PhaseBuild, "ig.edge_inserts", int64(attempts))
	}
}

// splitPieces cuts f's instruction stream into shards spans of
// near-equal size, slicing inside blocks where a block straddles a
// boundary. (Generated code routinely concentrates >90% of a routine
// in one straight-line block, so block-granular sharding cannot
// balance.) Each shard's piece list is in ascending block order with
// at most one piece per block; the lists jointly cover every
// instruction exactly once. Boundary live sets for the intra-block
// cuts come from one cheap backward sweep per cut block.
func splitPieces(f *ir.Func, lv *dataflow.Liveness, shards, total int) [][]piece {
	out := make([][]piece, shards)
	bounds := make([]int, shards+1)
	for s := 0; s <= shards; s++ {
		bounds[s] = s * total / shards
	}
	base := 0
	s := 0
	for bi, b := range f.Blocks {
		n := len(b.Instrs)
		if n == 0 {
			continue
		}
		end := base + n
		for bounds[s+1] <= base {
			s++
		}
		for t := s; t < shards && bounds[t] < end; t++ {
			lo := bounds[t]
			if lo < base {
				lo = base
			}
			hi := bounds[t+1]
			if hi > end {
				hi = end
			}
			out[t] = append(out[t], piece{bi: bi, lo: lo - base, hi: hi - base})
		}
		base = end
	}
	// Seed the intra-block cuts: every piece that stops short of its
	// block's end needs the live set at its hi boundary. A block split
	// across k shards has k-1 cuts; one backward sweep serves them all.
	cut := make(map[int][]*piece)
	for s := range out {
		for i := range out[s] {
			p := &out[s][i]
			if p.hi < len(f.Blocks[p.bi].Instrs) {
				cut[p.bi] = append(cut[p.bi], p)
			}
		}
	}
	for bi, ps := range cut {
		sort.Slice(ps, func(i, j int) bool { return ps[i].hi < ps[j].hi })
		cuts := make([]int, len(ps))
		for i, p := range ps {
			cuts[i] = p.hi
		}
		sets := lv.LiveAtCuts(f, f.Blocks[bi], cuts)
		for i, p := range ps {
			p.liveAtHi = sets[i]
		}
	}
	return out
}

// edgePair is one undirected candidate edge in shard order.
type edgePair struct{ a, b int32 }

// edgeSeen is the per-shard local dedup structure, mirroring the
// graph's own dual representation: a triangular bit matrix up to
// bitMatrixLimit nodes, a flat open-addressing edge set beyond it.
type edgeSeen struct {
	n    int
	bits []uint64
	set  edgeSet
}

func newEdgeSeen(n int) *edgeSeen {
	s := &edgeSeen{n: n}
	if n <= bitMatrixLimit {
		s.bits = make([]uint64, (n*(n-1)/2+63)/64)
	} else {
		s.set.init(0)
	}
	return s
}

// insert records the unordered pair (a, b) and reports whether it was
// new.
func (s *edgeSeen) insert(a, b int32) bool {
	if a > b {
		a, b = b, a
	}
	if s.bits != nil {
		i := triIndex(a, b)
		if s.bits[i/64]&(1<<uint(i%64)) != 0 {
			return false
		}
		s.bits[i/64] |= 1 << uint(i%64)
		return true
	}
	return s.set.insert(edgeKey(a, b))
}

// buildSharded enumerates the pieces concurrently into per-piece
// locally-deduped buffers, then merges the buffers in enumeration-
// stream order. A shard's pieces are ascending by block with one
// piece per block, so a shard-wide dedup still keeps exactly the
// shard's stream-first occurrence of each edge; the stream-order
// merge then dedups globally, so first occurrence wins exactly as in
// the sequential build's AddEdge stream and the adjacency vectors
// come out byte-identical to buildSequential's.
func buildSharded(g *Graph, f *ir.Func, lv *dataflow.Liveness, shards, total int, tr *obs.Tracer) {
	t0 := time.Now()
	work := splitPieces(f, lv, shards, total)
	type pieceBuf struct {
		p     piece
		edges []edgePair
	}
	bufs := make([][]pieceBuf, shards)
	attemptsBy := make([]int, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			seen := newEdgeSeen(g.n)
			pb := make([]pieceBuf, len(work[s]))
			att := 0
			for i := range work[s] {
				p := work[s][i]
				pb[i].p = p
				edges := pb[i].edges
				enumeratePiece(f, lv, p, func(d, l int32) {
					att++
					// Filter what the graph would reject (cross-class
					// pairs) before buffering, and dedup locally:
					// duplicates within a shard would lose the global
					// first-occurrence race anyway.
					if g.class[d] != g.class[l] {
						return
					}
					if seen.insert(d, l) {
						edges = append(edges, edgePair{d, l})
					}
				})
				pb[i].edges = edges
			}
			attemptsBy[s] = att
			bufs[s] = pb
		}(s)
	}
	wg.Wait()
	shardDur := time.Since(t0)

	t0 = time.Now()
	var all []pieceBuf
	for s := range bufs {
		all = append(all, bufs[s]...)
	}
	// Stream order: blocks ascending; within a split block the walk
	// is backward, so higher-lo pieces come first.
	sort.Slice(all, func(i, j int) bool {
		if all[i].p.bi != all[j].p.bi {
			return all[i].p.bi < all[j].p.bi
		}
		return all[i].p.lo > all[j].p.lo
	})
	// Pre-size the edge log from the buffers' counts (an upper bound
	// on final edges — cross-shard duplicates inflate it slightly) so
	// the merge's appends never reallocate, then replay the buffers in
	// stream order through AddEdge; the CSR compile in Finalize reads
	// the log back out in exactly that order.
	attempts, buffered := 0, 0
	for s := range attemptsBy {
		attempts += attemptsBy[s]
	}
	for _, pb := range all {
		buffered += len(pb.edges)
	}
	if cap(g.ea) < buffered {
		g.ea = make([]int32, 0, buffered)
		g.eb = make([]int32, 0, buffered)
	}
	for _, pb := range all {
		for _, e := range pb.edges {
			g.AddEdge(e.a, e.b)
		}
	}
	mergeDur := time.Since(t0)

	if tr.Enabled() {
		tr.Counter(obs.PhaseBuild, "ig.edge_inserts", int64(attempts))
		tr.Counter(obs.PhaseBuild, "ig.par.shards", int64(shards))
		tr.Counter(obs.PhaseBuild, "ig.par.buffered_edges", int64(buffered))
		tr.Counter(obs.PhaseBuild, "ig.par.shard_ns", shardDur.Nanoseconds())
		tr.Counter(obs.PhaseBuild, "ig.par.merge_ns", mergeDur.Nanoseconds())
	}
}
