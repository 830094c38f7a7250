// Package cfg computes control-flow analyses over IR functions:
// reverse postorder, immediate dominators (Cooper–Harvey–Kennedy),
// natural loops, and the loop-nesting depth of every block. Nesting
// depth drives the allocator's spill-cost estimates: a reference at
// depth d is weighted by 10^d, following Chaitin.
package cfg

import (
	"sort"

	"regalloc/internal/ir"
)

// Info is the result of Analyze.
type Info struct {
	// RPO is the blocks reachable from entry, in reverse postorder.
	RPO []int
	// RPONum[b] is the position of block b in RPO, or -1 if
	// unreachable.
	RPONum []int
	// IDom[b] is the immediate dominator of block b (entry's is
	// itself); -1 for unreachable blocks.
	IDom []int
	// Depth[b] is the loop-nesting depth of block b (0 = not in any
	// loop).
	Depth []int
	// Loops lists each natural loop found, outermost first among
	// nested loops with the same header merged.
	Loops []Loop
}

// Loop is a natural loop: a header plus the set of blocks that reach
// a back edge without leaving the header's dominance region.
type Loop struct {
	Header int
	Blocks []int
}

// Analyze computes dominators and loop nesting for f, and stamps
// each block's Depth field.
func Analyze(f *ir.Func) *Info {
	n := len(f.Blocks)
	info := &Info{
		RPONum: make([]int, n),
		IDom:   make([]int, n),
		Depth:  make([]int, n),
	}
	for i := range info.RPONum {
		info.RPONum[i] = -1
		info.IDom[i] = -1
	}

	// Depth-first search for postorder.
	post := make([]int, 0, n)
	seen := make([]bool, n)
	var dfs func(b int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range f.Blocks[b].Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(0)
	info.RPO = make([]int, len(post))
	for i := range post {
		info.RPO[i] = post[len(post)-1-i]
	}
	for i, b := range info.RPO {
		info.RPONum[b] = i
	}

	info.computeIDom(f)
	info.findLoops(f)

	for _, b := range f.Blocks {
		b.Depth = info.Depth[b.ID]
	}
	return info
}

// computeIDom is the Cooper–Harvey–Kennedy iterative algorithm.
func (info *Info) computeIDom(f *ir.Func) {
	info.IDom[0] = 0
	changed := true
	for changed {
		changed = false
		for _, b := range info.RPO[1:] {
			var newIdom = -1
			for _, p := range f.Blocks[b].Preds {
				if info.RPONum[p] < 0 || info.IDom[p] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = info.intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && info.IDom[b] != newIdom {
				info.IDom[b] = newIdom
				changed = true
			}
		}
	}
}

func (info *Info) intersect(a, b int) int {
	for a != b {
		for info.RPONum[a] > info.RPONum[b] {
			a = info.IDom[a]
		}
		for info.RPONum[b] > info.RPONum[a] {
			b = info.IDom[b]
		}
	}
	return a
}

// Dominates reports whether block a dominates block b. Unreachable
// blocks dominate nothing and are dominated by nothing. A dominator
// precedes the blocks it dominates in reverse postorder, so the walk
// up b's dominator chain stops as soon as it passes a's position.
func (info *Info) Dominates(a, b int) bool {
	if info.RPONum[a] < 0 || info.RPONum[b] < 0 {
		return false
	}
	for info.RPONum[b] > info.RPONum[a] {
		b = info.IDom[b]
	}
	return b == a
}

// InsertPreheader redirects every edge into l's header from outside
// l through a fresh block that branches to the header, and returns
// that block. Pass the new block to AddPreheader to keep an Info of f
// current; otherwise re-run Analyze before asking for loop
// information about the modified graph.
func InsertPreheader(f *ir.Func, l Loop) *ir.Block {
	pre := f.NewBlock()
	pre.Instrs = []ir.Instr{{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}}
	pre.Succs = []int{l.Header}
	for _, b := range f.Blocks {
		if b.ID == pre.ID || l.Contains(b.ID) {
			continue
		}
		for si, s := range b.Succs {
			if s == l.Header {
				b.Succs[si] = pre.ID
			}
		}
	}
	f.RecomputePreds()
	return pre
}

// Contains reports whether block b is in the loop.
func (l Loop) Contains(b int) bool {
	i := sort.SearchInts(l.Blocks, b)
	return i < len(l.Blocks) && l.Blocks[i] == b
}

// AddPreheader updates info, an analysis of f from before
// InsertPreheader(f, l) returned block pre for the loop l headed by
// header, to the analysis of f as it is now. Every path into the
// header from outside its loop now passes through pre, which changes
// no dominance between existing blocks: pre takes the header's
// immediate dominator and becomes the header's, joins the Blocks of
// every other loop containing the header (pre has the highest block
// number, so Blocks stays sorted), takes their count as its depth,
// and sits just before the header in RPO, where a depth-first search
// of the new graph finishes it. Loops keeps its order, so indices
// into it stay valid.
func (info *Info) AddPreheader(f *ir.Func, header, pre int) {
	if pre != len(info.IDom) || pre != len(f.Blocks)-1 {
		panic("cfg: AddPreheader: pre is not the block InsertPreheader just added")
	}
	info.RPONum = append(info.RPONum, -1)
	info.IDom = append(info.IDom, -1)
	info.Depth = append(info.Depth, 0)
	f.Blocks[pre].Depth = 0
	// The entry block has no predecessors outside its loop, so its
	// preheader is unreachable.
	if header == 0 {
		return
	}
	info.IDom[pre] = info.IDom[header]
	info.IDom[header] = pre
	depth := 0
	for i := range info.Loops {
		l := &info.Loops[i]
		if l.Header != header && l.Contains(header) {
			l.Blocks = append(l.Blocks, pre)
			depth++
		}
	}
	info.Depth[pre] = depth
	f.Blocks[pre].Depth = depth
	at := info.RPONum[header]
	info.RPO = append(info.RPO, 0)
	copy(info.RPO[at+1:], info.RPO[at:])
	info.RPO[at] = pre
	for i := at; i < len(info.RPO); i++ {
		info.RPONum[info.RPO[i]] = i
	}
}

// findLoops detects back edges (s -> h where h dominates s), builds
// each natural loop body, and accumulates nesting depth: a block in
// the bodies of d distinct loop headers has depth d. Loops are listed
// in the order their first back edge appears in block order, and all
// back edges into one header form one loop.
func (info *Info) findLoops(f *ir.Func) {
	type backEdge struct{ loop, latch int }
	var edges []backEdge
	loopOf := make([]int, len(f.Blocks)) // header -> loop index + 1
	for _, b := range f.Blocks {
		if info.RPONum[b.ID] < 0 {
			continue
		}
		for _, s := range b.Succs {
			if !info.Dominates(s, b.ID) {
				continue
			}
			if loopOf[s] == 0 {
				info.Loops = append(info.Loops, Loop{Header: s})
				loopOf[s] = len(info.Loops)
			}
			edges = append(edges, backEdge{loopOf[s] - 1, b.ID})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].loop < edges[j].loop })

	// Walk predecessors backward from each loop's latches; mark[x]
	// holds the index + 1 of the last loop whose body took x.
	mark := make([]int, len(f.Blocks))
	var stack []int
	for i := 0; i < len(edges); {
		li := edges[i].loop
		l := &info.Loops[li]
		mark[l.Header] = li + 1
		l.Blocks = append(l.Blocks, l.Header)
		for ; i < len(edges) && edges[i].loop == li; i++ {
			stack = append(stack[:0], edges[i].latch)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if mark[x] == li+1 {
					continue
				}
				mark[x] = li + 1
				l.Blocks = append(l.Blocks, x)
				for _, p := range f.Blocks[x].Preds {
					if info.RPONum[p] >= 0 {
						stack = append(stack, p)
					}
				}
			}
		}
		sort.Ints(l.Blocks) // deterministic order for clients (e.g. LICM)
		for _, b := range l.Blocks {
			info.Depth[b]++
		}
	}
}
