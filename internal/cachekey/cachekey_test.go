package cachekey

import (
	"strings"
	"testing"

	"regalloc"
	"regalloc/internal/alloc"
	"regalloc/internal/graphgen"
	"regalloc/internal/ig"
	"regalloc/internal/ir"
	"regalloc/internal/machine"
	"regalloc/internal/pcolor"
)

// TestGraphCanonicalAcrossEdgeOrder is the collision half of the
// contract: the same graph built in different edge orders (and
// round-tripped through the .ig text format) digests identically.
func TestGraphCanonicalAcrossEdgeOrder(t *testing.T) {
	classes := []ir.Class{ir.ClassInt, ir.ClassInt, ir.ClassFloat, ir.ClassInt}
	costs := []float64{1, 5, 2.5, 1}

	a := ig.New(classes)
	a.AddEdge(0, 1)
	a.AddEdge(1, 2)
	a.AddEdge(2, 3)

	b := ig.New(classes)
	b.AddEdge(2, 3)
	b.AddEdge(2, 1)
	b.AddEdge(1, 0)

	if Graph(a, costs) != Graph(b, costs) {
		t.Fatal("same graph, different insertion order: keys differ")
	}

	// Round-trip through the .ig text format: ReadGraph yields
	// all-int classes, so the fixture is all-int too.
	allInt := ig.New([]ir.Class{ir.ClassInt, ir.ClassInt, ir.ClassInt, ir.ClassInt})
	allInt.AddEdge(0, 1)
	allInt.AddEdge(1, 2)
	allInt.AddEdge(2, 3)
	var buf strings.Builder
	if err := graphgen.WriteGraph(&buf, allInt, costs); err != nil {
		t.Fatal(err)
	}
	c, cCosts, err := graphgen.ReadGraph(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if Graph(c, cCosts) != Graph(allInt, costs) {
		t.Fatal(".ig round-trip changed the key")
	}
}

// TestGraphSeparates is the separation half: a different edge set or
// cost vector must change the key.
func TestGraphSeparates(t *testing.T) {
	classes := []ir.Class{ir.ClassInt, ir.ClassInt, ir.ClassInt}
	costs := []float64{1, 1, 1}
	a := ig.New(classes)
	a.AddEdge(0, 1)

	b := ig.New(classes)
	b.AddEdge(0, 2)
	if Graph(a, costs) == Graph(b, costs) {
		t.Fatal("different edges, same key")
	}

	if Graph(a, costs) == Graph(a, []float64{1, 2, 1}) {
		t.Fatal("different costs, same key")
	}
}

func TestOptionsFingerprint(t *testing.T) {
	base := alloc.DefaultOptions()

	// Result-neutral knobs collide: Workers only sizes the
	// whole-program pool and Observer only watches.
	tuned := base
	tuned.Workers = 8
	if Options(base) != Options(tuned) {
		t.Fatal("Workers reached the fingerprint")
	}

	// An explicit default and the unset zero collide.
	def := base
	def.MaxPasses = 0
	explicit := base
	explicit.MaxPasses = 64
	if Options(def) != Options(explicit) {
		t.Fatal("default MaxPasses split the key")
	}

	// Result-affecting knobs separate.
	mutations := []func(*alloc.Options){
		func(o *alloc.Options) { o.Heuristic = 0 /* chaitin */ },
		func(o *alloc.Options) { o.KInt = 8 },
		func(o *alloc.Options) { o.KFloat = 4 },
		func(o *alloc.Options) { o.Metric = 1 },
		func(o *alloc.Options) { o.Coalesce = !o.Coalesce },
		func(o *alloc.Options) { o.ConservativeCoalesce = true },
		func(o *alloc.Options) { o.Rematerialize = true },
		func(o *alloc.Options) { o.Split = true },
		func(o *alloc.Options) { o.MaxPasses = 3 },
		func(o *alloc.Options) { o.CostParams.DepthBase = 8 },
		func(o *alloc.Options) { o.UsePColor = true },
		func(o *alloc.Options) { o.Heuristic = 4 /* irc */ },
		func(o *alloc.Options) { o.Machine = machine.RTPC() },
		func(o *alloc.Options) {
			m := *machine.RTPC()
			m.CallerSaved[0]++ // same counts, different save partition
			o.Machine = &m
		},
		func(o *alloc.Options) {
			m := *machine.RTPC()
			m.ArgRegs[0] = m.ArgRegs[0][:2] // fewer argument registers
			o.Machine = &m
		},
	}
	seen := map[Key]int{Options(base): -1}
	for i, mut := range mutations {
		o := base
		mut(&o)
		k := Options(o)
		if prev, dup := seen[k]; dup {
			t.Fatalf("mutation %d collides with %d", i, prev)
		}
		seen[k] = i
	}

	// Under pcolor the seed matters; without it, it must not.
	pc := base
	pc.UsePColor = true
	pc.PColorSeed = 1
	pc2 := pc
	pc2.PColorSeed = 2
	if Options(pc) == Options(pc2) {
		t.Fatal("pcolor seed ignored under UsePColor")
	}
	jp := pc
	jp.PColorAlgo = pcolor.JonesPlassmann
	if Options(pc) == Options(jp) {
		t.Fatal("pcolor algorithm ignored under UsePColor")
	}
	noPC := base
	noPC.PColorSeed = 99
	if Options(base) != Options(noPC) {
		t.Fatal("pcolor seed reached the fingerprint with the engine off")
	}
}

// axSource, axRenamed and axChanged are one routine three ways: as
// written, with a comment, blank lines and renamed variables (the same
// IR), and with a different constant (different IR).
const (
	axSource = `
      SUBROUTINE AX(N,X)
      REAL X(*)
      INTEGER I,N
      DO I = 1,N
         X(I) = X(I) + 1.0
      ENDDO
      RETURN
      END
`
	axRenamed = `
C     a comment, extra blank lines, renamed variables
      SUBROUTINE AX(M,Y)

      REAL Y(*)
      INTEGER J,M
      DO J = 1,M
         Y(J) = Y(J) + 1.0
      ENDDO
      RETURN
      END
`
	axChanged = `
      SUBROUTINE AX(N,X)
      REAL X(*)
      INTEGER I,N
      DO I = 1,N
         X(I) = X(I) + 2.0
      ENDDO
      RETURN
      END
`
)

// TestFuncDigestNormalizesSource feeds two textually different but
// semantically identical sources through the compiler and checks the
// IR digests collide, while a real change separates them.
func TestFuncDigestNormalizesSource(t *testing.T) {
	a, b, c := compileOne(t, axSource), compileOne(t, axRenamed), compileOne(t, axChanged)
	if Func(a) != Func(b) {
		t.Fatal("formatting/renaming changed the IR digest")
	}
	if Func(a) == Func(c) {
		t.Fatal("different constant, same IR digest")
	}
}

// compileOne compiles a single-routine source via the public
// compiler entry point (no import cycle: the root package does not
// import cachekey).
func compileOne(t *testing.T, src string) *ir.Func {
	t.Helper()
	prog, err := regalloc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.IR.Funcs) != 1 {
		t.Fatalf("want 1 unit, got %d", len(prog.IR.Funcs))
	}
	return prog.IR.Funcs[0]
}
