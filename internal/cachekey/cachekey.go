// Package cachekey computes content-addressed digests for allocator
// inputs and configurations, the keys under which internal/rescache
// stores completed allocations. The design goal is a *canonical*
// form on both axes:
//
//   - Equivalent inputs collide. A mini-FORTRAN source is digested
//     through its compiled IR, so formatting, comments, and even
//     variable renamings that lower to the same IR share a key.
//     A .ig graph is digested through a sorted-edge canonical form,
//     so the same graph serialized in any edge order shares a key.
//   - Different configurations do not. The Options fingerprint
//     covers every field that can change an allocation result —
//     heuristic, register budgets, spill metric and cost parameters,
//     coalescing and spill-code modes, pass bound, and the pcolor
//     (seed, workers) pair when the speculative engine is on.
//
// Fields that provably cannot change the result are excluded:
// Options.Workers only sizes the whole-program worker pool, and
// Options.Observer only watches. Excluding them is what
// makes a warm cache survive clients that tune concurrency knobs.
//
// Every digest is domain-separated (a fixed tag is hashed first) and
// every field is type-and-length tagged, so concatenation ambiguity
// cannot alias two different inputs onto one key.
package cachekey

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"regalloc/internal/alloc"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
)

// Key is a content digest. Keys are comparable and usable as map
// keys.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Hasher accumulates tagged fields into a digest. The zero value is
// not ready; use New.
type Hasher struct {
	h   hash.Hash
	buf [10]byte
}

// New returns a Hasher domain-separated by tag.
func New(tag string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.Str(tag)
	return h
}

func (h *Hasher) tagged(tag byte, payload []byte) {
	h.buf[0] = tag
	binary.LittleEndian.PutUint64(h.buf[1:9], uint64(len(payload)))
	h.h.Write(h.buf[:9])
	h.h.Write(payload)
}

// Str hashes a length-tagged string field.
func (h *Hasher) Str(s string) { h.tagged('s', []byte(s)) }

// Bytes hashes a length-tagged byte field.
func (h *Hasher) Bytes(b []byte) { h.tagged('b', b) }

// Int hashes an integer field.
func (h *Hasher) Int(v int64) {
	h.buf[0] = 'i'
	binary.LittleEndian.PutUint64(h.buf[1:9], uint64(v))
	h.h.Write(h.buf[:9])
}

// Uint hashes an unsigned integer field.
func (h *Hasher) Uint(v uint64) {
	h.buf[0] = 'u'
	binary.LittleEndian.PutUint64(h.buf[1:9], v)
	h.h.Write(h.buf[:9])
}

// Bool hashes a boolean field.
func (h *Hasher) Bool(v bool) {
	h.buf[0] = 'B'
	h.buf[1] = 0
	if v {
		h.buf[1] = 1
	}
	h.h.Write(h.buf[:2])
}

// Float hashes a float field by its IEEE 754 bit pattern.
func (h *Hasher) Float(v float64) {
	h.buf[0] = 'f'
	binary.LittleEndian.PutUint64(h.buf[1:9], math.Float64bits(v))
	h.h.Write(h.buf[:9])
}

// Key finalizes the digest. The Hasher must not be reused after.
func (h *Hasher) Key() Key {
	var k Key
	h.h.Sum(k[:0])
	return k
}

// Options fingerprints every result-affecting configuration field.
// Workers and Observer are deliberately excluded (see the package
// comment); MaxPasses is resolved to its documented default first so
// an explicit default and an unset zero collide. The speculative
// engine's worker count is a constant (alloc.DefaultPColorWorkers),
// not an option, so nothing here hashes it.
func Options(opt alloc.Options) Key {
	h := New("regalloc/options/1")
	h.Int(int64(opt.Heuristic))
	h.Int(int64(opt.KInt))
	h.Int(int64(opt.KFloat))
	h.Int(int64(opt.Metric))
	h.Bool(opt.Coalesce)
	h.Bool(opt.ConservativeCoalesce)
	h.Float(opt.CostParams.DepthBase)
	h.Float(opt.CostParams.MemOpWeight)
	h.Bool(opt.Rematerialize)
	h.Bool(opt.Split)
	maxPasses := opt.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 64 // alloc.Run's documented default
	}
	h.Int(int64(maxPasses))
	h.Bool(opt.UsePColor)
	if opt.UsePColor {
		// Only under the engine do the seed and the algorithm
		// determine the coloring; hashing them when the engine is off
		// would split keys that allocate identically.
		h.Uint(opt.PColorSeed)
		h.Int(int64(opt.PColorAlgo))
	}
	h.Bool(opt.Machine != nil)
	if m := opt.Machine; m != nil {
		// The model changes both the graph (precolored nodes, clobber
		// edges) and the move set, so every constraint-bearing field
		// is part of the key; the name alone would let two models with
		// the same label collide.
		h.Str(m.Name)
		for c := 0; c < len(m.NumRegs); c++ {
			h.Int(int64(m.NumRegs[c]))
			h.Int(int64(m.CallerSaved[c]))
			h.Int(int64(m.RetReg[c]))
			h.Int(int64(len(m.ArgRegs[c])))
			for _, r := range m.ArgRegs[c] {
				h.Int(int64(r))
			}
		}
	}
	return h.Key()
}

// Func digests one unit's IR: its name, register classes, and every
// instruction's fields in block order, with each block's branch
// targets. These cover every field the canonical listing (ir.Fprint)
// prints, so any two sources lowering to one listing collide, which
// is the point. The fields are hashed in binary: printing the listing
// would cost about as much as the compile that produced it.
func Func(f *ir.Func) Key {
	h := New("regalloc/ir/2")
	hashFunc(h, f)
	return h.Key()
}

// Program digests a whole program: its unit count, then each unit's
// fields as Func hashes them, in order.
func Program(funcs []*ir.Func) Key {
	h := New("regalloc/ir-program/2")
	h.Int(int64(len(funcs)))
	for _, f := range funcs {
		hashFunc(h, f)
	}
	return h.Key()
}

func hashFunc(h *Hasher, f *ir.Func) {
	h.Str(f.Name)
	h.Int(int64(f.NumRegs()))
	for r := ir.Reg(0); int(r) < f.NumRegs(); r++ {
		h.Int(int64(f.RegClass(r)))
	}
	h.Int(int64(len(f.Blocks)))
	for _, b := range f.Blocks {
		h.Int(int64(b.ID))
		h.Int(int64(b.Depth))
		h.Int(int64(len(b.Instrs)))
		for i := range b.Instrs {
			in := &b.Instrs[i]
			h.Int(int64(in.Op))
			h.Int(int64(in.Dst))
			h.Int(int64(in.A))
			h.Int(int64(in.B))
			h.Int(int64(in.C))
			h.Int(in.Imm)
			h.Float(in.FImm)
			h.Int(int64(in.Cmp))
			h.Int(int64(in.Cls))
			h.Str(in.Callee)
			h.Int(int64(len(in.Args)))
			for _, a := range in.Args {
				h.Int(int64(a))
			}
		}
		h.Int(int64(len(b.Succs)))
		for _, s := range b.Succs {
			h.Int(int64(s))
		}
	}
}

// Graph digests a standalone interference graph plus its spill costs
// in a canonical form: node count, per-node classes, the edge set
// sorted as (min, max) pairs, and the cost vector. Insertion order
// never reaches the hash, so any serialization of the same graph
// collides.
func Graph(g *ig.Graph, costs []float64) Key {
	h := New("regalloc/ig/1")
	n := g.NumNodes()
	h.Int(int64(n))
	for a := int32(0); a < int32(n); a++ {
		h.Int(int64(g.Class(a)))
	}
	edges := make([][2]int32, 0, g.NumEdges())
	for a := int32(0); a < int32(n); a++ {
		for _, b := range g.Neighbors(a) {
			if b > a {
				edges = append(edges, [2]int32{a, b})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	h.Int(int64(len(edges)))
	for _, e := range edges {
		h.Int(int64(e[0]))
		h.Int(int64(e[1]))
	}
	h.Int(int64(len(costs)))
	for _, c := range costs {
		h.Float(c)
	}
	return h.Key()
}

// Combine derives a request key from component digests under a fresh
// domain tag — e.g. (input digest, options digest, response shape).
func Combine(tag string, keys ...Key) Key {
	h := New(tag)
	for _, k := range keys {
		h.Bytes(k[:])
	}
	return h.Key()
}
