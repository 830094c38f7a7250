// Package opt implements the machine-independent optimizations the
// paper's compiler (the IRⁿ optimizer, PL.8-style) performed before
// register allocation: local common-subexpression elimination,
// loop-invariant code motion, and dead-code elimination.
//
// These passes matter to the reproduction because they are what
// creates the paper's characteristic live-range structure. Hoisting
// loop-invariant address arithmetic and limit computations produces
// exactly the "dozen long live ranges extending from the
// initialization portion ... into the large loop nests" that make
// SVD over-spill under Chaitin's heuristic (§1.2). Without an
// optimizer, a naive code generator produces only short-lived
// temporaries and the pressure pattern the paper studies never
// forms.
package opt

import (
	"sort"

	"regalloc/internal/cfg"
	"regalloc/internal/ir"
)

// Stats reports what the optimizer did.
type Stats struct {
	CSERemoved int // instructions removed by local value numbering
	Hoisted    int // instructions moved to loop preheaders
	DeadGone   int // dead instructions eliminated
}

// Run applies local CSE, loop-invariant code motion, and dead-code
// elimination, in place. It returns statistics.
func Run(f *ir.Func) Stats {
	var st Stats
	st.CSERemoved = LocalCSE(f)
	st.Hoisted = LICM(f)
	// Hoisting exposes more common subexpressions in the preheaders.
	st.CSERemoved += LocalCSE(f)
	st.DeadGone = DeadCodeElim(f)
	return st
}

// pure reports whether an opcode computes a value from its operands
// with no side effects and no possibility of a runtime fault, so it
// may be removed (CSE) or executed speculatively (LICM). Integer
// divide and modulo are excluded: hoisting one past a loop guard
// could introduce a division-by-zero fault the original program did
// not have.
func pure(op ir.Op) bool {
	switch op {
	case ir.OpConst, ir.OpItoF, ir.OpFtoI,
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpNeg,
		ir.OpIMin, ir.OpIMax, ir.OpIAbs, ir.OpISign,
		ir.OpAddI, ir.OpMulI,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFNeg,
		ir.OpFMin, ir.OpFMax, ir.OpFAbs, ir.OpFSign:
		return true
	}
	return false
}

// exprKey identifies a pure computation for value numbering. The
// result class disambiguates e.g. integer "const 0" from float
// "const 0.0", whose operand fields coincide.
type exprKey struct {
	op   ir.Op
	cls  ir.Class
	a, b ir.Reg
	imm  int64
	fimm float64
}

// LocalCSE performs value numbering within each basic block: when a
// pure computation repeats with operands that have not been
// redefined since, later occurrences become copies of the first
// result. (The copies are then usually coalesced away by the
// allocator's build phase, leaving one longer-lived value — the
// point of the exercise.) Returns the number of replaced
// computations.
func LocalCSE(f *ir.Func) int {
	replaced := 0
	// defCount distinguishes single-assignment temporaries from
	// mutable user variables; only single-def registers are safe
	// table entries and operands without version tracking.
	defCount := countDefs(f)

	avail := make(map[exprKey]ir.Reg)
	for _, b := range f.Blocks {
		clear(avail)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			d := in.Def()
			if !pure(in.Op) || d == ir.NoReg || defCount[d] != 1 {
				continue
			}
			if (in.A != ir.NoReg && defCount[in.A] != 1) ||
				(in.B != ir.NoReg && defCount[in.B] != 1) {
				continue
			}
			k := exprKey{op: in.Op, cls: f.RegClass(d), a: in.A, b: in.B, imm: in.Imm, fimm: in.FImm}
			if prev, ok := avail[k]; ok {
				*in = ir.Instr{Op: ir.OpMove, Dst: d, A: prev, B: ir.NoReg, C: ir.NoReg}
				replaced++
				continue
			}
			avail[k] = d
		}
	}
	return replaced
}

// maxHoists bounds LICM's work: hoisting stops after this many
// hoists, each one loop's batch. A unit of a few hundred sequential
// loops reaches it; the cap is kept so the optimized code stays
// identical to what earlier versions produced.
const maxHoists = 512

// LICM hoists loop-invariant pure computations to loop preheaders,
// innermost loops first. A computation is hoisted when it is pure,
// its destination has exactly one definition in the whole function,
// and its operands have no definitions inside the loop. Returns the
// number of instructions moved.
//
// Each hoist takes the first loop, innermost first, that has
// something to hoist, moves that loop's batch into a new preheader,
// and starts the scan over. The CFG is analyzed once: AddPreheader
// keeps the analysis current after each preheader, and definition
// counts never change, since hoisting moves instructions and adds or
// removes no definition. A loop that hoisted nothing when last
// examined is skipped until a hoist touches it. A hoist from loop l
// touches only the loops that contain l's header, which gain the
// preheader, and the loops that contain a block l's batch left; any
// other loop has the same blocks, instructions, exits and dominators
// as when it last hoisted nothing, and would hoist nothing again.
func LICM(f *ir.Func) int {
	info := cfg.Analyze(f)
	if len(info.Loops) == 0 {
		return 0
	}
	order := innermostFirst(info)
	h := newHoister(f, info)
	clean := make([]bool, len(info.Loops))
	hoisted := 0
	for n := 0; n < maxHoists; n++ {
		moved, li := 0, -1
		for _, i := range order {
			if clean[i] {
				continue
			}
			if moved = h.hoistLoop(info.Loops[i]); moved > 0 {
				li = i
				break
			}
			clean[i] = true
		}
		if li < 0 {
			break
		}
		hoisted += moved
		header := info.Loops[li].Header
		info.AddPreheader(f, header, len(f.Blocks)-1)
		for i, l := range info.Loops {
			if clean[i] && (l.Contains(header) || h.touches(l)) {
				clean[i] = false
			}
		}
	}
	return hoisted
}

// innermostFirst orders loop indices by decreasing header depth so
// inner loops hoist first; loops at equal depth keep their order.
func innermostFirst(info *cfg.Info) []int {
	order := make([]int, len(info.Loops))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return info.Depth[info.Loops[order[i]].Header] > info.Depth[info.Loops[order[j]].Header]
	})
	return order
}

// memRegion identifies the storage an OpLoad/OpStore touches, for
// the FORTRAN aliasing rule: distinct dummy-argument arrays (distinct
// parameter base registers) do not alias each other or this
// function's static storage; everything else is one conservative
// "static" region.
type memRegion struct {
	param bool
	base  ir.Reg
}

func accessRegion(f *ir.Func, in *ir.Instr) memRegion {
	if in.B != ir.NoReg {
		for _, p := range f.Params {
			if p == in.B {
				return memRegion{param: true, base: in.B}
			}
		}
	}
	return memRegion{}
}

// hoister holds LICM's per-unit state and the scratch hoistLoop
// reuses across calls. The marks are stamps: a block or register is
// marked for the current call when its entry equals stamp.
type hoister struct {
	f        *ir.Func
	info     *cfg.Info
	defCount []int
	stamp    int32
	inLoop   []int32 // by block
	// definedIn marks registers defined in the loop and not yet
	// chosen; chosen marks the destinations of chosen instructions,
	// and so the instructions, since each has one definition.
	definedIn, chosen []int32
	stored            []memRegion
	exitSources       []int
	order             []site
	left              []int // blocks the last hoist removed instructions from
}

type site struct{ block, index int }

func newHoister(f *ir.Func, info *cfg.Info) *hoister {
	return &hoister{
		f:         f,
		info:      info,
		defCount:  countDefs(f),
		inLoop:    make([]int32, len(f.Blocks)+maxHoists),
		definedIn: make([]int32, f.NumRegs()),
		chosen:    make([]int32, f.NumRegs()),
	}
}

// touches reports whether the last hoist removed instructions from a
// block of l.
func (h *hoister) touches(l cfg.Loop) bool {
	for _, b := range h.left {
		if l.Contains(b) {
			return true
		}
	}
	return false
}

// hoistLoop moves l's invariant computations into a new preheader,
// the last block of f, and returns how many it moved; with none to
// move it changes nothing.
func (h *hoister) hoistLoop(l cfg.Loop) int {
	f, info := h.f, h.info
	h.stamp++
	st := h.stamp
	for _, b := range l.Blocks {
		h.inLoop[b] = st
	}
	// Registers defined inside the loop, calls, stores, and the
	// loop's exit-source blocks.
	hasCall := false
	h.stored = h.stored[:0]
	h.exitSources = h.exitSources[:0]
	for _, bid := range l.Blocks {
		b := f.Blocks[bid]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := in.Def(); d != ir.NoReg {
				h.definedIn[d] = st
			}
			switch in.Op {
			case ir.OpCall:
				hasCall = true
			case ir.OpStore, ir.OpSpillStore:
				if r := accessRegion(f, in); !h.isStored(r) {
					h.stored = append(h.stored, r)
				}
			}
		}
		for _, s := range b.Succs {
			if h.inLoop[s] != st {
				h.exitSources = append(h.exitSources, bid)
				break
			}
		}
	}

	// loadHoistable applies the extra conditions for memory reads:
	// the load's block must execute on every trip through the loop
	// (it dominates every exit source, so entering the loop implies
	// executing it — making the hoisted load identical to the load
	// the first iteration would issue), and nothing in the loop may
	// write the load's region. A call could write anything.
	loadHoistable := func(bid int, in *ir.Instr) bool {
		if hasCall || h.isStored(accessRegion(f, in)) {
			return false
		}
		for _, es := range h.exitSources {
			if !info.Dominates(bid, es) {
				return false
			}
		}
		return true
	}

	// Collect hoistable instructions to fixpoint: an instruction
	// whose operands stop being "defined in loop" once a producer is
	// hoisted becomes hoistable too.
	h.order = h.order[:0]
	for changed := true; changed; {
		changed = false
		for _, bid := range l.Blocks {
			instrs := f.Blocks[bid].Instrs
			for i := range instrs {
				in := &instrs[i]
				d := in.Def()
				if d == ir.NoReg || h.defCount[d] != 1 || h.chosen[d] == st {
					continue
				}
				switch {
				case pure(in.Op):
					// fine
				case in.Op == ir.OpLoad:
					if !loadHoistable(bid, in) {
						continue
					}
				default:
					continue
				}
				if (in.A != ir.NoReg && h.definedIn[in.A] == st) ||
					(in.B != ir.NoReg && h.definedIn[in.B] == st) ||
					(in.C != ir.NoReg && h.definedIn[in.C] == st) {
					continue
				}
				h.chosen[d] = st
				h.order = append(h.order, site{bid, i})
				h.definedIn[d] = 0
				changed = true
			}
		}
	}
	if len(h.order) == 0 {
		return 0
	}

	// Build the preheader and splice the hoisted instructions into
	// it in their original relative order (operands before users is
	// guaranteed because a producer became hoistable no later than
	// its consumers, and order respects discovery). The preheader
	// ends in a branch to the header; they go before it.
	pre := cfg.InsertPreheader(f, l)
	instrs := make([]ir.Instr, 0, len(h.order)+len(pre.Instrs))
	for _, s := range h.order {
		instrs = append(instrs, f.Blocks[s.block].Instrs[s.index])
	}
	pre.Instrs = append(instrs, pre.Instrs...)
	h.left = h.left[:0]
	for _, bid := range l.Blocks {
		b := f.Blocks[bid]
		out := b.Instrs[:0]
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d == ir.NoReg || h.chosen[d] != st {
				out = append(out, b.Instrs[i])
			}
		}
		if len(out) < len(b.Instrs) {
			h.left = append(h.left, bid)
		}
		b.Instrs = out
	}
	return len(h.order)
}

// isStored reports whether the loop being examined stores to r.
func (h *hoister) isStored(r memRegion) bool {
	for _, s := range h.stored {
		if s == r {
			return true
		}
	}
	return false
}

func countDefs(f *ir.Func) []int {
	counts := make([]int, f.NumRegs())
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg {
				counts[d]++
			}
		}
	}
	return counts
}
