package ig

import (
	"regalloc/internal/bitset"
	"regalloc/internal/dataflow"
	"regalloc/internal/ir"
	"regalloc/internal/machine"
	"regalloc/internal/obs"
)

// MachineGraph is an interference graph extended with a machine
// model's precolored nodes: the function's virtual registers occupy
// nodes [0, NumVRegs) exactly as in the plain build, and every
// physical register of the model follows as one precolored node with
// a fixed color. Pre maps each node to its fixed color (NoPreColor
// for virtual registers), so consumers can treat "has a fixed color"
// and "is precolored" as the same test.
type MachineGraph struct {
	*Graph
	// NumVRegs is the virtual-register count; nodes at or beyond it
	// are precolored.
	NumVRegs int
	// Model is the machine description the graph was built against;
	// nil for the degenerate wrap of a plain graph (no precolored
	// nodes, no clobber edges).
	Model *machine.Model
	// Pre holds each node's fixed color, NoPreColor for virtual
	// registers. len(Pre) == NumNodes().
	Pre []int16
}

// NoPreColor marks a node without a fixed color in MachineGraph.Pre.
const NoPreColor int16 = -1

// PreNode returns the node id of physical register r of class c.
func (mg *MachineGraph) PreNode(c ir.Class, r int16) int32 {
	return int32(mg.NumVRegs) + mg.Model.PreOffset(c) + int32(r)
}

// Precolored reports whether node a is a precolored physical
// register.
func (mg *MachineGraph) Precolored(a int32) bool {
	return int(a) >= mg.NumVRegs
}

// WrapPlain adapts a machine-free graph to the MachineGraph shape:
// no precolored nodes, every Pre entry NoPreColor. Consumers that
// handle both modes (the IRC allocator) take a MachineGraph
// unconditionally and see the plain graph through it.
func WrapPlain(g *Graph) *MachineGraph {
	pre := make([]int16, g.NumNodes())
	for i := range pre {
		pre[i] = NoPreColor
	}
	return &MachineGraph{Graph: g, NumVRegs: g.NumNodes(), Pre: pre}
}

// BuildWithMachine constructs the machine-extended interference graph
// of f from a precomputed liveness: the plain def × live-after
// enumeration over the virtual registers, plus the machine model's
// constraint edges —
//
//   - every pair of same-class precolored nodes interferes (physical
//     registers are distinct), and
//   - every virtual register live across a call interferes with every
//     caller-saved register of its class, so call-crossing ranges can
//     only take callee-saved colors.
//
// A call's clobber edges go in after its definition's edges. Each
// adjacency row comes out as it would from interleaving them per live
// register: a register live across the call receives the definition
// before the caller-saved registers either way, and a caller-saved
// register's row receives the live registers in ascending order.
func BuildWithMachine(f *ir.Func, lv *dataflow.Liveness, m *machine.Model, tr *obs.Tracer) *MachineGraph {
	n := f.NumRegs()
	p := m.NumPrecolored()
	classes := regClasses(f, p)
	pre := make([]int16, n+p)
	for i := range pre {
		pre[i] = NoPreColor
	}
	for i := int32(0); int(i) < p; i++ {
		c, r := m.PreClass(i)
		classes = append(classes, c)
		pre[n+int(i)] = r
	}
	g := New(classes)
	mg := &MachineGraph{Graph: g, NumVRegs: n, Model: m, Pre: pre}

	// Physical registers of a class pairwise interfere.
	for _, c := range []ir.Class{ir.ClassInt, ir.ClassFloat} {
		for a := int16(0); int(a) < m.NumRegs[c]; a++ {
			for b := a + 1; int(b) < m.NumRegs[c]; b++ {
				g.AddEdge(mg.PreNode(c, a), mg.PreNode(c, b))
			}
		}
	}

	// The plain enumeration plus the call-clobber sweep, in one
	// backward liveness walk per block.
	counting := tr.Enabled()
	attempts := 0
	lv.LiveAcross(f, func(_ *ir.Block, _ int, in *ir.Instr, liveAfter *bitset.Set) {
		d := int32(in.Def())
		if d >= 0 {
			src := moveSource(in)
			g.AddLiveEdges(d, liveAfter, src)
			if counting {
				attempts += candidates(liveAfter, d, src)
			}
		}
		if in.Op == ir.OpCall {
			// Live across the call (all but its definition):
			// clobbered by every caller-saved register of its
			// class.
			for _, c := range []ir.Class{ir.ClassInt, ir.ClassFloat} {
				for r := int16(0); int(r) < m.CallerSaved[c]; r++ {
					g.AddLiveEdges(mg.PreNode(c, r), liveAfter, d)
				}
			}
		}
	})
	g.Finalize()
	if counting {
		tr.Counter(obs.PhaseBuild, "ig.edge_inserts", int64(attempts))
		tr.Counter(obs.PhaseBuild, "ig.machine_nodes", int64(p))
	}
	if buildObserver != nil {
		buildObserver(f, lv, m, g)
	}
	return mg
}
