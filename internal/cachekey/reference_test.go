package cachekey

import (
	"testing"

	"regalloc"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ir"
	"regalloc/internal/workloads"
)

// refFunc and refProgram are the text digests Func and Program
// replaced: every instruction hashed as its ir.SprintInstr line. They
// are the reference the binary digests are held to.
func refFunc(f *ir.Func) Key {
	h := New("regalloc/ir/1")
	refHashFunc(h, f)
	return h.Key()
}

func refProgram(funcs []*ir.Func) Key {
	h := New("regalloc/ir-program/1")
	h.Int(int64(len(funcs)))
	for _, f := range funcs {
		refHashFunc(h, f)
	}
	return h.Key()
}

func refHashFunc(h *Hasher, f *ir.Func) {
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
			h.Str(ir.SprintInstr(f, &b.Instrs[i], b))
		}
	}
}

// keyCorpus compiles the suite, a commented copy of every suite
// program, 100 fuzzgen programs and the three AX routines.
func keyCorpus(t *testing.T) []*regalloc.Program {
	t.Helper()
	var srcs []string
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		srcs = append(srcs, w.Source, "C     A COMMENTED COPY\n"+w.Source)
	}
	for seed := uint64(1); seed <= 100; seed++ {
		srcs = append(srcs, fuzzgen.Generate(seed, fuzzgen.Config{}))
	}
	srcs = append(srcs, axSource, axRenamed, axChanged)
	progs := make([]*regalloc.Program, len(srcs))
	for i, src := range srcs {
		prog, err := regalloc.Compile(src)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		progs[i] = prog
	}
	return progs
}

// TestBinaryKeyMatchesTextKey holds the binary digests to the text
// digests they replaced: over the corpus, two units (and two
// programs) share a binary key exactly when they share a text key.
func TestBinaryKeyMatchesTextKey(t *testing.T) {
	progs := keyCorpus(t)
	var units, programs [][2]Key // {binary, text}
	for _, prog := range progs {
		programs = append(programs, [2]Key{Program(prog.IR.Funcs), refProgram(prog.IR.Funcs)})
		for _, f := range prog.IR.Funcs {
			units = append(units, [2]Key{Func(f), refFunc(f)})
		}
	}
	for name, keys := range map[string][][2]Key{"unit": units, "program": programs} {
		// The partitions agree when each binary key maps to one text
		// key and each text key to one binary key.
		toText, toBinary := map[Key]Key{}, map[Key]Key{}
		for i, k := range keys {
			if prev, ok := toText[k[0]]; ok && prev != k[1] {
				t.Fatalf("%s %d: shares a binary key with a %s whose text key differs", name, i, name)
			}
			if prev, ok := toBinary[k[1]]; ok && prev != k[0] {
				t.Fatalf("%s %d: shares a text key with a %s whose binary key differs", name, i, name)
			}
			toText[k[0]], toBinary[k[1]] = k[1], k[0]
		}
		if len(toText) == len(keys) {
			t.Fatalf("no two %ss collide: the corpus does not exercise equality", name)
		}
		t.Logf("%d %ss, %d distinct keys", len(keys), name, len(toText))
	}
}

// TestFuncKeySeparatesEveryField changes one printed field of one
// instruction at a time, and one branch target at a time, and
// requires every change to move the unit's key. It covers every unit
// of the suite and, in each, the first perUnit instructions of every
// opcode and the targets of the first perUnit branching blocks (a key
// costs time linear in the unit, so mutating every instruction of the
// largest units would be quadratic).
func TestFuncKeySeparatesEveryField(t *testing.T) {
	const perUnit = 3
	type mutation struct {
		field string
		apply func(in *ir.Instr, nregs int)
	}
	reg := func(r ir.Reg, nregs int) ir.Reg {
		if r == ir.NoReg {
			return 0
		}
		return (r + 1) % ir.Reg(nregs)
	}
	mutations := []mutation{
		{"op", func(in *ir.Instr, _ int) { in.Op ^= 1 }},
		{"dst", func(in *ir.Instr, n int) { in.Dst = reg(in.Dst, n) }},
		{"a", func(in *ir.Instr, n int) { in.A = reg(in.A, n) }},
		{"b", func(in *ir.Instr, n int) { in.B = reg(in.B, n) }},
		{"c", func(in *ir.Instr, n int) { in.C = reg(in.C, n) }},
		{"imm", func(in *ir.Instr, _ int) { in.Imm++ }},
		{"fimm", func(in *ir.Instr, _ int) { in.FImm += 0.5 }},
		{"cmp", func(in *ir.Instr, _ int) { in.Cmp = in.Cmp.Negate() }},
		{"cls", func(in *ir.Instr, _ int) { in.Cls ^= 1 }},
		{"callee", func(in *ir.Instr, _ int) { in.Callee += "X" }},
		{"args", func(in *ir.Instr, n int) {
			args := append([]ir.Reg(nil), in.Args...)
			if len(args) == 0 {
				args = append(args, 0)
			} else {
				args[len(args)-1] = reg(args[len(args)-1], n)
			}
			in.Args = args
		}},
	}
	var changes int
	ops := map[ir.Op]bool{}
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		prog, err := regalloc.Compile(w.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range prog.IR.Funcs {
			base := Func(f)
			seen := map[ir.Op]int{}
			branching := 0
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					if seen[in.Op] == perUnit {
						continue
					}
					seen[in.Op]++
					ops[in.Op] = true
					for _, m := range mutations {
						saved := *in
						m.apply(in, f.NumRegs())
						k := Func(f)
						*in = saved
						if k == base {
							t.Fatalf("%s b%d instr %d (%s): changing %s left the key unchanged",
								f.Name, b.ID, i, ir.SprintInstr(f, in, b), m.field)
						}
						changes++
					}
				}
				if len(b.Succs) == 0 || branching == perUnit {
					continue
				}
				branching++
				for j, s := range b.Succs {
					b.Succs[j] = (s + 1) % len(f.Blocks)
					k := Func(f)
					b.Succs[j] = s
					if k == base {
						t.Fatalf("%s b%d: changing branch target %d left the key unchanged", f.Name, b.ID, j)
					}
					changes++
				}
			}
			if Func(f) != base {
				t.Fatalf("%s: mutations were not undone", f.Name)
			}
		}
	}
	t.Logf("%d single-field changes over %d opcodes", changes, len(ops))
}

// BenchmarkProgramKey compares the binary digest of each suite
// program with the text digest it replaced.
func BenchmarkProgramKey(b *testing.B) {
	var progs [][]*ir.Func
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		prog, err := regalloc.Compile(w.Source)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prog.IR.Funcs)
	}
	for _, k := range []struct {
		name string
		key  func([]*ir.Func) Key
	}{{"binary", Program}, {"text", refProgram}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range progs {
					sinkKey = k.key(p)
				}
			}
		})
	}
}

var sinkKey Key
