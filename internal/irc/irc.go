// Package irc implements George–Appel iterated register coalescing:
// the Build/Simplify/Coalesce/Freeze/Spill/Select worklist machine
// ("Iterated Register Coalescing", TOPLAS 1996, as presented in
// Appel's Modern Compiler Implementation). Where the paper's Figure 4
// cycle runs coalescing as a pre-pass over the full-pressure graph,
// IRC interleaves conservative coalescing with simplification: every
// node removed lowers its neighbors' degrees, so moves that fail the
// conservative test early in the phase pass it later, and far more
// copies are eliminated without ever making the graph harder to
// color.
//
// Node and move state transitions follow the classic formulation:
//
//	nodes: initial → simplify/freeze/spill worklist → stack/coalesced
//	moves: worklist → coalesced | constrained | frozen | active (and
//	       active → worklist again when a neighbor's degree decays)
//
// Two conservative tests gate a coalesce. The Briggs test (the
// combined node has fewer than k significant-degree neighbors) is
// used between two ordinary nodes; George's test (every neighbor of
// the ordinary end is insignificant, precolored, or already adjacent
// to the other end) is used when one end is precolored — precolored
// nodes have no adjacency lists, and George's one-sided walk is what
// makes coalescing into physical registers safe. Freeze is the escape
// hatch: when nothing can simplify or coalesce, a low-degree
// move-related node gives up its moves and becomes simplifiable.
// Select colors with move bias: a node whose move partner already
// holds a legal color takes that color, so even moves that were never
// coalesced tend to become register self-copies.
//
// One Color call is one round; the alloc driver (alloc.runIRC) wraps
// it in the usual spill-and-repeat iteration and applies the coalesce
// rewrite on the successful round.
package irc

import (
	"context"
	"fmt"
	"math"

	"regalloc/internal/color"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
)

// Result is the outcome of one IRC round.
type Result struct {
	// Colors assigns every graph node a color; NoColor marks the
	// spilled. Virtual registers occupy [0, NumVRegs); precolored
	// nodes follow with their fixed colors.
	Colors []int16
	// Spilled lists the virtual registers that received no color;
	// empty means the round succeeded.
	Spilled []int32
	// CoalescedIR counts IR move instructions whose ends were merged.
	CoalescedIR int
	// CoalescedMachine counts calling-convention bindings (argument,
	// return, call-result moves the machine model implies) merged
	// into their physical register.
	CoalescedMachine int
	// Constrained counts moves abandoned because their ends interfere.
	Constrained int
	// Frozen counts moves given up by freeze or spill selection.
	Frozen int

	n         int
	alias     []int32
	coalesced []bool
}

// wl names the worklist (or terminal state) a node currently occupies.
type wl uint8

const (
	wlNone wl = iota
	wlPrecolored
	wlSimplify
	wlFreeze
	wlSpill
	wlStack
	wlCoalesced
)

// moveState is the classic move lifecycle.
type moveState uint8

const (
	mvWorklist moveState = iota // candidate, ready to test
	mvActive                    // not ready; re-enabled when degrees decay
	mvCoalesced
	mvConstrained
	mvFrozen
)

type move struct {
	x, y    int32 // endpoints as graph nodes (x is the destination)
	machine bool  // a convention binding, not an IR instruction
	state   moveState
}

// infiniteDegree is the precolored nodes' degree: large enough that
// no decrement sequence reaches a class budget.
const infiniteDegree = int32(1) << 29

type state struct {
	f      *ir.Func
	g      *ig.MachineGraph
	n      int // virtual registers
	nn     int // total nodes
	kf     func(ir.Class) int
	cost   []float64
	metric color.Metric
	tr     *obs.Tracer

	adj    [][]int32 // adjacency lists, virtual registers only
	extra  map[uint64]struct{}
	degree []int32
	alias  []int32

	moves    []move
	moveList [][]int32 // node -> indices into moves

	where      []wl
	simplifyWL []int32
	freezeWL   []int32
	spillWL    []int32
	wlMoves    []int32
	wlMovesAt  int // queue head; entries before it are consumed
	stack      []int32

	// mark and epoch are briggsOK's scratch, one entry per node: during
	// a query, mark[t] == epoch flags t as a neighbor of v and epoch+1
	// as already counted. Advancing the epoch by two clears every mark.
	mark  []uint32
	epoch uint32

	r *Result
}

func edgeKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// Color runs one IRC round over a prebuilt (machine-extended)
// interference graph. cost covers the virtual registers; kf is the
// per-class register budget; metric is the spill-choice figure of
// merit shared with the simplify-family heuristics. The graph may be
// a plain one wrapped by ig.WrapPlain, in which case no precolored
// constraints or convention bindings exist and the round is pure
// iterated coalescing. The round is the last one over a program
// that already colors, so it coalesces the copies of spill and split
// temporaries too. ctx is checked before the first worklist step and
// every checkEvery steps after it; once it is done, Color returns an
// error wrapping ctx.Err().
func Color(ctx context.Context, f *ir.Func, mg *ig.MachineGraph, cost []float64, kf func(ir.Class) int, metric color.Metric, tr *obs.Tracer) (*Result, error) {
	s := newState(f, mg, cost, kf, metric, tr)
	for steps := 0; ; steps++ {
		if steps%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("irc: cancelled after %d worklist steps: %w", steps, err)
			}
		}
		switch {
		case s.popSimplify():
		case s.popCoalesce():
		case s.popFreeze():
		case s.popSpill():
		default:
			return s.assignColors(), nil
		}
	}
}

// checkEvery is how many simplify, coalesce, freeze and spill steps
// the worklist machine takes between context checks.
const checkEvery = 256

// newState snapshots the graph and fills the initial worklists.
func newState(f *ir.Func, mg *ig.MachineGraph, cost []float64, kf func(ir.Class) int, metric color.Metric, tr *obs.Tracer) *state {
	s := &state{
		f:      f,
		g:      mg,
		n:      mg.NumVRegs,
		nn:     mg.NumNodes(),
		kf:     kf,
		cost:   append([]float64(nil), cost...),
		metric: metric,
		tr:     tr,
		extra:  make(map[uint64]struct{}),
		r:      &Result{},
	}
	s.build()
	s.makeWorklists()
	return s
}

func (s *state) k(a int32) int { return s.kf(s.g.Class(a)) }

func (s *state) precolored(a int32) bool { return int(a) >= s.n }

func (s *state) interfere(a, b int32) bool {
	if s.g.Interfere(a, b) {
		return true
	}
	_, ok := s.extra[edgeKey(a, b)]
	return ok
}

func (s *state) getAlias(a int32) int32 {
	for s.where[a] == wlCoalesced {
		a = s.alias[a]
	}
	return a
}

// build snapshots the graph into mutable adjacency/degree state and
// collects the move candidates: IR copies plus, when a machine model
// is present, the convention bindings.
func (s *state) build() {
	s.adj = make([][]int32, s.n)
	s.degree = make([]int32, s.nn)
	s.alias = make([]int32, s.nn)
	s.where = make([]wl, s.nn)
	s.moveList = make([][]int32, s.nn)
	s.mark = make([]uint32, s.nn)
	for v := int32(0); int(v) < s.n; v++ {
		nbs := s.g.Neighbors(v)
		s.adj[v] = append([]int32(nil), nbs...)
		s.degree[v] = int32(len(nbs))
	}
	for p := int32(s.n); int(p) < s.nn; p++ {
		s.degree[p] = infiniteDegree
		s.where[p] = wlPrecolored
	}

	addMove := func(x, y int32, machine bool) {
		if x == y {
			return
		}
		mi := int32(len(s.moves))
		s.moves = append(s.moves, move{x: x, y: y, machine: machine, state: mvWorklist})
		s.moveList[x] = append(s.moveList[x], mi)
		s.moveList[y] = append(s.moveList[y], mi)
		s.wlMoves = append(s.wlMoves, mi)
	}
	// IR copies, spill and split temporaries included. Package
	// coalesce keeps spill-traffic registers out, since merging a
	// reload temporary back into a long-lived range would undo its
	// spill while further spill rounds may follow. A round here is
	// the terminal one, over an already-colorable program, where
	// George and Appel's observation applies directly: spill code is
	// itself full of copies, and coalescing the temporaries is what
	// cleans it up.
	for _, b := range s.f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.IsMove() && in.Dst != ir.NoReg && in.A != ir.NoReg {
				addMove(int32(in.Dst), int32(in.A), false)
			}
		}
	}
	// Convention bindings: parameters to argument registers, returned
	// values and call results to the return register, call arguments
	// to their argument registers. Each is a virtual move the backend
	// would insert, so coalescing one pins the range to its physical
	// register and the move never materializes.
	if m := s.g.Model; m != nil {
		var pos [ir.NumClasses]int
		for _, p := range s.f.Params {
			c := s.f.RegClass(p)
			if r := m.ArgReg(c, pos[c]); r >= 0 && p != ir.NoReg {
				addMove(int32(p), s.g.PreNode(c, r), true)
			}
			pos[c]++
		}
		for _, b := range s.f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case ir.OpRet:
					if in.A != ir.NoReg {
						c := s.f.RegClass(in.A)
						if r := m.RetReg[c]; r >= 0 {
							addMove(s.g.PreNode(c, r), int32(in.A), true)
						}
					}
				case ir.OpCall:
					var apos [ir.NumClasses]int
					for _, a := range in.Args {
						c := s.f.RegClass(a)
						if r := m.ArgReg(c, apos[c]); r >= 0 && a != ir.NoReg {
							addMove(s.g.PreNode(c, r), int32(a), true)
						}
						apos[c]++
					}
					if in.Dst != ir.NoReg {
						c := s.f.RegClass(in.Dst)
						if r := m.RetReg[c]; r >= 0 {
							addMove(int32(in.Dst), s.g.PreNode(c, r), true)
						}
					}
				}
			}
		}
	}
}

// nodeMoves reports whether node a (a current representative) has any
// move still live (worklist or active).
func (s *state) moveRelated(a int32) bool {
	for _, mi := range s.moveList[a] {
		st := s.moves[mi].state
		if st == mvWorklist || st == mvActive {
			return true
		}
	}
	return false
}

func (s *state) makeWorklists() {
	for v := int32(0); int(v) < s.n; v++ {
		switch {
		case s.degree[v] >= int32(s.k(v)):
			s.where[v] = wlSpill
			s.spillWL = append(s.spillWL, v)
		case s.moveRelated(v):
			s.where[v] = wlFreeze
			s.freezeWL = append(s.freezeWL, v)
		default:
			s.where[v] = wlSimplify
			s.simplifyWL = append(s.simplifyWL, v)
		}
	}
}

// inPlay reports whether node t is still in the graph (not stacked,
// not coalesced away).
func (s *state) inPlay(t int32) bool {
	w := s.where[t]
	return w != wlStack && w != wlCoalesced
}

// adjacent calls fn for each of a's neighbors still in play.
func (s *state) adjacent(a int32, fn func(t int32)) {
	for _, t := range s.adj[a] {
		if s.inPlay(t) {
			fn(t)
		}
	}
}

func (s *state) enableMovesOf(a int32) {
	for _, mi := range s.moveList[a] {
		if s.moves[mi].state == mvActive {
			s.moves[mi].state = mvWorklist
			s.wlMoves = append(s.wlMoves, mi)
		}
	}
}

func (s *state) decrementDegree(t int32) {
	if s.precolored(t) {
		return
	}
	d := s.degree[t]
	s.degree[t] = d - 1
	if d == int32(s.k(t)) {
		// t just became insignificant: its moves (and its neighbors')
		// may now pass the conservative tests.
		s.enableMovesOf(t)
		s.adjacent(t, s.enableMovesOf)
		if s.where[t] == wlSpill {
			if s.moveRelated(t) {
				s.where[t] = wlFreeze
				s.freezeWL = append(s.freezeWL, t)
			} else {
				s.where[t] = wlSimplify
				s.simplifyWL = append(s.simplifyWL, t)
			}
		}
	}
}

// popSimplify removes one trivially-colorable node and stacks it.
func (s *state) popSimplify() bool {
	for len(s.simplifyWL) > 0 {
		v := s.simplifyWL[len(s.simplifyWL)-1]
		s.simplifyWL = s.simplifyWL[:len(s.simplifyWL)-1]
		if s.where[v] != wlSimplify {
			continue
		}
		s.where[v] = wlStack
		s.stack = append(s.stack, v)
		s.adjacent(v, s.decrementDegree)
		return true
	}
	return false
}

// addWorkList drops a node into the simplify worklist once it is
// neither move-related nor significant.
func (s *state) addWorkList(u int32) {
	if s.precolored(u) {
		return
	}
	if s.where[u] != wlFreeze && s.where[u] != wlSpill {
		return
	}
	if !s.moveRelated(u) && s.degree[u] < int32(s.k(u)) {
		s.where[u] = wlSimplify
		s.simplifyWL = append(s.simplifyWL, u)
	}
}

// georgeOK is George's test for coalescing ordinary v into u (which
// may be precolored): every in-play neighbor t of v must be
// insignificant, precolored, or already a neighbor of u, so merging
// adds no new pressure anywhere.
func (s *state) georgeOK(v, u int32) bool {
	ok := true
	s.adjacent(v, func(t int32) {
		if !ok {
			return
		}
		if s.degree[t] < int32(s.k(t)) || s.precolored(t) || s.interfere(t, u) {
			return
		}
		ok = false
	})
	return ok
}

// briggsObserver, when non-nil, sees every Briggs query with the live
// state it was answered against. Tests install it to check the test
// against a reference implementation.
var briggsObserver func(s *state, u, v int32, ok bool)

// conservativeOK gates coalescing v into u: George's test when u is
// precolored, the Briggs test otherwise.
func (s *state) conservativeOK(u, v int32) bool {
	if s.precolored(u) {
		return s.georgeOK(v, u)
	}
	ok := s.briggsOK(u, v)
	if briggsObserver != nil {
		briggsObserver(s, u, v, ok)
	}
	return ok
}

// briggsOK is the Briggs conservative test on the union neighborhood
// of u and v, with the shared-neighbor refinement: a node adjacent to
// both ends loses an edge in the merge, so its effective degree drops
// by one. The walk costs O(deg u + deg v), stops as soon as k
// significant neighbors are found, and allocates nothing.
func (s *state) briggsOK(u, v int32) bool {
	k := int32(s.k(u))
	s.epoch += 2
	if s.epoch == 0 { // wrapped: stale marks could alias the new epoch
		clear(s.mark)
		s.epoch = 2
	}
	inV, counted := s.epoch, s.epoch+1
	for _, t := range s.adj[v] {
		s.mark[t] = inV
	}
	significant := int32(0)
	for _, t := range s.adj[u] {
		if t == v || !s.inPlay(t) {
			continue
		}
		d := s.degree[t]
		if s.mark[t] == inV {
			d--
		}
		s.mark[t] = counted
		if d >= k {
			if significant++; significant >= k {
				return false
			}
		}
	}
	for _, t := range s.adj[v] {
		if t == u || !s.inPlay(t) || s.mark[t] == counted {
			continue
		}
		if s.degree[t] >= k {
			if significant++; significant >= k {
				return false
			}
		}
	}
	return significant < k
}

// combine merges v into u after a successful conservative test.
func (s *state) combine(u, v int32) {
	s.where[v] = wlCoalesced
	s.alias[v] = u
	// The merged web carries the combined spill price: without this,
	// a long coalesced range keeps the cost of one member and looks
	// artificially cheap to popSpill.
	if !s.precolored(u) {
		s.cost[u] += s.cost[v]
	}
	s.moveList[u] = append(s.moveList[u], s.moveList[v]...)
	s.enableMovesOf(v)
	s.adjacent(v, func(t int32) {
		s.addEdge(t, u)
		s.decrementDegree(t)
	})
	if s.degree[u] >= int32(s.k(u)) && s.where[u] == wlFreeze {
		s.where[u] = wlSpill
		s.spillWL = append(s.spillWL, u)
	}
}

// addEdge grows the mutable graph during combine: t swaps its edge to
// the vanished v for one to u. Precolored nodes track neither
// adjacency nor degree.
func (s *state) addEdge(t, u int32) {
	if t == u || s.interfere(t, u) {
		return
	}
	s.extra[edgeKey(t, u)] = struct{}{}
	if !s.precolored(t) {
		s.adj[t] = append(s.adj[t], u)
		s.degree[t]++
	}
	if !s.precolored(u) {
		s.adj[u] = append(s.adj[u], t)
		s.degree[u]++
	}
}

// popCoalesce tests one pending move.
func (s *state) popCoalesce() bool {
	for s.wlMovesAt < len(s.wlMoves) {
		mi := s.wlMoves[s.wlMovesAt]
		s.wlMovesAt++
		mv := &s.moves[mi]
		if mv.state != mvWorklist {
			continue
		}
		x, y := s.getAlias(mv.x), s.getAlias(mv.y)
		var u, v int32
		if s.precolored(y) {
			u, v = y, x
		} else {
			u, v = x, y
		}
		switch {
		case u == v:
			mv.state = mvCoalesced
			s.countCoalesced(mv)
			s.addWorkList(u)
		case s.precolored(v) || s.interfere(u, v):
			mv.state = mvConstrained
			s.r.Constrained++
			s.addWorkList(u)
			s.addWorkList(v)
		case s.conservativeOK(u, v):
			mv.state = mvCoalesced
			s.countCoalesced(mv)
			s.combine(u, v)
			s.addWorkList(u)
		default:
			mv.state = mvActive
		}
		return true
	}
	return false
}

func (s *state) countCoalesced(mv *move) {
	if mv.machine {
		s.r.CoalescedMachine++
	} else {
		s.r.CoalescedIR++
	}
}

// freezeMoves abandons every live move of u: the partners lose their
// move-related status and may become simplifiable.
func (s *state) freezeMoves(u int32) {
	ua := s.getAlias(u)
	for _, mi := range s.moveList[u] {
		mv := &s.moves[mi]
		if mv.state != mvActive && mv.state != mvWorklist {
			continue
		}
		x, y := s.getAlias(mv.x), s.getAlias(mv.y)
		v := x
		if x == ua {
			v = y
		}
		mv.state = mvFrozen
		s.r.Frozen++
		if !s.precolored(v) && s.where[v] == wlFreeze && !s.moveRelated(v) && s.degree[v] < int32(s.k(v)) {
			s.where[v] = wlSimplify
			s.simplifyWL = append(s.simplifyWL, v)
		}
	}
}

// popFreeze gives up the moves of one low-degree move-related node.
func (s *state) popFreeze() bool {
	for len(s.freezeWL) > 0 {
		u := s.freezeWL[len(s.freezeWL)-1]
		s.freezeWL = s.freezeWL[:len(s.freezeWL)-1]
		if s.where[u] != wlFreeze {
			continue
		}
		s.where[u] = wlSimplify
		s.simplifyWL = append(s.simplifyWL, u)
		s.freezeMoves(u)
		return true
	}
	return false
}

// popSpill picks a spill candidate by the configured metric (spill
// temporaries carry infinite cost, so they are chosen last) and
// pushes it optimistically through simplify, exactly like the Briggs
// path: only select decides whether it actually spills.
func (s *state) popSpill() bool {
	best := int32(-1)
	bestVal := math.Inf(1)
	live := s.spillWL[:0]
	for _, v := range s.spillWL {
		if s.where[v] != wlSpill {
			continue
		}
		live = append(live, v)
		if val := s.metric.Value(s.cost[v], s.degree[v]); best == -1 || val < bestVal {
			best = v
			bestVal = val
		}
	}
	s.spillWL = live
	if best == -1 {
		return false
	}
	s.tr.SpillDecision(best, s.degree[best], s.cost[best], bestVal)
	s.where[best] = wlSimplify
	s.simplifyWL = append(s.simplifyWL, best)
	s.freezeMoves(best)
	return true
}

// assignColors replays the stack with move-biased selection, then
// propagates colors (or spills) to coalesced members.
func (s *state) assignColors() *Result {
	r := s.r
	r.Colors = make([]int16, s.nn)
	for i := range r.Colors {
		r.Colors[i] = color.NoColor
	}
	for p := int32(s.n); int(p) < s.nn; p++ {
		r.Colors[p] = s.g.Pre[p]
	}
	used := make([]bool, 0, 32)
	for len(s.stack) > 0 {
		v := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		kn := s.k(v)
		if cap(used) < kn {
			used = make([]bool, kn)
		}
		used = used[:kn]
		for j := range used {
			used[j] = false
		}
		for _, w := range s.adj[v] {
			if c := r.Colors[s.getAlias(w)]; c != color.NoColor && int(c) < kn {
				used[c] = true
			}
		}
		chosen := color.NoColor
		for j := 0; j < kn; j++ {
			if !used[j] {
				chosen = int16(j)
				break
			}
		}
		if chosen == color.NoColor {
			r.Spilled = append(r.Spilled, v)
			continue
		}
		// Move bias: prefer the lowest legal color a move partner
		// already holds — frozen and constrained moves included, since
		// matching colors still turns the surviving copy into a
		// register self-move.
		bias := color.NoColor
		for _, mi := range s.moveList[v] {
			mv := &s.moves[mi]
			x, y := s.getAlias(mv.x), s.getAlias(mv.y)
			other := x
			if x == v {
				other = y
			}
			if other == v {
				continue
			}
			if c := r.Colors[other]; c != color.NoColor && int(c) < kn && !used[c] {
				if bias == color.NoColor || c < bias {
					bias = c
				}
			}
		}
		if bias != color.NoColor {
			chosen = bias
		}
		r.Colors[v] = chosen
	}
	// Coalesced members inherit their representative's fate.
	for v := int32(0); int(v) < s.n; v++ {
		if s.where[v] == wlCoalesced {
			r.Colors[v] = r.Colors[s.getAlias(v)]
		}
	}
	r.n = s.n
	r.alias = s.alias
	r.coalesced = make([]bool, s.n)
	for v := 0; v < s.n; v++ {
		r.coalesced[v] = s.where[v] == wlCoalesced
	}
	if s.tr.Enabled() {
		s.tr.Counter(obs.PhaseSimplify, "irc.moves_coalesced", int64(r.CoalescedIR))
		s.tr.Counter(obs.PhaseSimplify, "irc.bindings_coalesced", int64(r.CoalescedMachine))
		s.tr.Counter(obs.PhaseSimplify, "irc.moves_frozen", int64(r.Frozen))
		s.tr.Counter(obs.PhaseSimplify, "irc.moves_constrained", int64(r.Constrained))
	}
	return r
}

// resolve follows the alias chain of a virtual register to its
// representative node (a virtual register or a precolored node).
func (r *Result) resolve(v int32) int32 {
	for int(v) < r.n && r.coalesced[v] {
		v = r.alias[v]
	}
	return v
}

// ApplyRewrite renames every coalesced virtual register to its web's
// representative and deletes moves that became self-copies, returning
// the number of deleted instructions. A web merged into a precolored
// node keeps a virtual name (its lowest member — the IR has no
// physical registers), which is sound because all members share the
// precolored node's color and were proven non-interfering.
//
// Beyond the webs the worklist machine merged, the rewrite elides
// every surviving move whose two ends landed on the same color:
// equal colors in a valid coloring prove the ends never interfere,
// so the aggressive merge is sound here, and the copy — a register
// self-move in the final code — disappears with it. Move-biased
// select steers frozen and constrained-adjacent partners onto shared
// colors precisely to feed this step.
//
// Call it only after a successful round (empty Spilled): on a spill
// round the coalesces are discarded with the graph, exactly as the
// driver discards the pre-pass coalesce after a spill.
func (r *Result) ApplyRewrite(f *ir.Func) int {
	if r.n == 0 {
		return 0
	}
	base := make([]int32, r.n)
	for v := int32(0); int(v) < r.n; v++ {
		base[v] = r.resolve(v)
	}
	// Color elision: union webs joined by a same-colored move. A tree
	// holds at most one precolored node (two distinct precolored nodes
	// of one class never share a color), and it becomes the root so
	// canonical naming below sees it; between virtual roots the lower
	// id wins, keeping the rewrite deterministic.
	parent := make(map[int32]int32)
	find := func(a int32) int32 {
		for {
			p, ok := parent[a]
			if !ok {
				return a
			}
			a = p
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.IsMove() || in.Dst == ir.NoReg || in.A == ir.NoReg {
				continue
			}
			ra, rb := find(base[in.Dst]), find(base[in.A])
			if ra == rb || f.RegClass(in.Dst) != f.RegClass(in.A) {
				continue
			}
			if c := r.Colors[ra]; c == color.NoColor || c != r.Colors[rb] {
				continue
			}
			switch {
			case int(ra) >= r.n:
				parent[rb] = ra
			case int(rb) >= r.n:
				parent[ra] = rb
			case ra < rb:
				parent[rb] = ra
			default:
				parent[ra] = rb
			}
		}
	}
	rep := make([]ir.Reg, r.n)
	canon := make(map[int32]ir.Reg)
	for v := int32(0); int(v) < r.n; v++ {
		w := find(base[v])
		if int(w) < r.n {
			rep[v] = ir.Reg(w)
			continue
		}
		if c, ok := canon[w]; ok {
			rep[v] = c
		} else {
			canon[w] = ir.Reg(v) // ascending scan: first member is lowest
			rep[v] = ir.Reg(v)
		}
	}
	return f.RenameRegs(func(a ir.Reg) ir.Reg { return rep[a] })
}
