// Package ir defines the three-address intermediate representation
// that the register allocator operates on.
//
// A Func is a control-flow graph of basic blocks over an unbounded
// set of virtual registers. Each virtual register belongs to one of
// two classes, matching the paper's target (the IBM RT/PC): integer
// values live in general-purpose registers, floating-point values in
// the coprocessor's floating-point registers. Register allocation
// maps virtual registers of each class onto k physical registers of
// that class, inserting spill code when it cannot.
//
// Memory is a flat array of 64-bit words. Local arrays and spill
// slots are statically allocated (as FORTRAN 77 storage was): each
// function owns a static region [StaticBase, StaticBase+StaticSize)
// for locals followed by its spill slots.
package ir

import (
	"fmt"
	"io"
	"strings"
)

// Class is a register class.
type Class uint8

// Register classes.
const (
	ClassInt   Class = iota // general-purpose (integer) registers
	ClassFloat              // floating-point registers
	NumClasses = 2
)

func (c Class) String() string {
	if c == ClassInt {
		return "int"
	}
	return "flt"
}

// Reg names a virtual register (before allocation) or a physical
// register (after). NoReg marks an absent operand.
type Reg int32

// NoReg is the absent-operand sentinel.
const NoReg Reg = -1

// Op is an instruction opcode.
type Op uint8

// Opcodes. The comment shows the reading of each instruction;
// "m[x]" is the word of memory at address x.
const (
	OpNop   Op = iota
	OpParam    // Dst = parameter #Imm (entry-block prologue only)
	OpConst    // Dst = Imm (int) or FImm (float), by class of Dst
	OpMove     // Dst = A
	OpItoF     // Dst(flt) = float(A(int))
	OpFtoI     // Dst(int) = trunc(A(flt))

	// Integer arithmetic: Dst = A op B (OpNeg/OpIAbs use A only).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpIMin
	OpIMax
	OpIAbs
	OpISign // Dst = |A| * sign(B)
	OpIPow  // Dst = A**B (B >= 0)
	OpAddI  // Dst = A + Imm (the target's 16-bit immediate form)
	OpMulI  // Dst = A * Imm

	// Floating-point arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg
	OpFMin
	OpFMax
	OpFAbs
	OpFSqrt
	OpFExp
	OpFLog
	OpFSin
	OpFCos
	OpFSign // Dst = |A| * sign(B)
	OpFMod  // Dst = fmod(A, B)
	OpFPow  // Dst = A**B

	// Memory. Effective address = (B) + (C) + Imm, where absent
	// (NoReg) register operands contribute zero. The class of the
	// moved value is the class of Dst (load) or A (store).
	OpLoad  // Dst = m[B + C + Imm]
	OpStore // m[B + C + Imm] = A

	// Spill traffic. Slot numbers are function-local; the backend
	// places slot s at address StaticBase + StaticSize + s.
	OpSpillLoad  // Dst = slot[Imm]
	OpSpillStore // slot[Imm] = A

	// Control transfer. These appear only as a block's final
	// instruction.
	OpBr   // goto Succs[0]
	OpBrIf // if cmp.Cls(A Cmp B) goto Succs[0] else Succs[1]
	OpRet  // return (value in A if present)

	// Call: Dst (optional) = Callee(Args...). The simulator gives
	// each activation its own register file, so a call clobbers no
	// caller registers (see DESIGN.md on calling-convention scope).
	OpCall

	numOps
)

var opNames = [numOps]string{
	OpNop: "nop", OpParam: "param", OpConst: "const", OpMove: "move",
	OpItoF: "itof", OpFtoI: "ftoi",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpNeg: "neg", OpIMin: "imin", OpIMax: "imax", OpIAbs: "iabs",
	OpISign: "isign", OpIPow: "ipow", OpAddI: "addi", OpMulI: "muli",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFNeg: "fneg", OpFMin: "fmin", OpFMax: "fmax", OpFAbs: "fabs",
	OpFSqrt: "fsqrt", OpFExp: "fexp", OpFLog: "flog", OpFSin: "fsin",
	OpFCos: "fcos", OpFSign: "fsign", OpFMod: "fmod", OpFPow: "fpow",
	OpLoad: "load", OpStore: "store",
	OpSpillLoad: "spld", OpSpillStore: "spst",
	OpBr: "br", OpBrIf: "brif", OpRet: "ret", OpCall: "call",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// IsTerminator reports whether op ends a basic block.
func (op Op) IsTerminator() bool { return op == OpBr || op == OpBrIf || op == OpRet }

// Cmp is a comparison kind for OpBrIf.
type Cmp uint8

// Comparison kinds.
const (
	CmpEQ Cmp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

var cmpNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

func (c Cmp) String() string { return cmpNames[c] }

// Negate returns the complementary comparison.
func (c Cmp) Negate() Cmp {
	switch c {
	case CmpEQ:
		return CmpNE
	case CmpNE:
		return CmpEQ
	case CmpLT:
		return CmpGE
	case CmpLE:
		return CmpGT
	case CmpGT:
		return CmpLE
	default:
		return CmpLT
	}
}

// Instr is one three-address instruction.
type Instr struct {
	Op      Op
	Dst     Reg // defined register, or NoReg
	A, B, C Reg // operands, NoReg if unused
	Imm     int64
	FImm    float64
	Cmp     Cmp
	Cls     Class // comparison class for OpBrIf
	Callee  string
	Args    []Reg // call arguments
}

// Def returns the register defined by the instruction, or NoReg.
func (in *Instr) Def() Reg { return in.Dst }

// AppendUses appends the registers the instruction reads to buf and
// returns the extended slice.
func (in *Instr) AppendUses(buf []Reg) []Reg {
	for _, r := range [3]Reg{in.A, in.B, in.C} {
		if r != NoReg {
			buf = append(buf, r)
		}
	}
	if in.Op == OpCall {
		buf = append(buf, in.Args...)
	}
	return buf
}

// IsMove reports whether the instruction is a register-to-register
// copy (a coalescing candidate).
func (in *Instr) IsMove() bool { return in.Op == OpMove }

// Flags carries per-register annotations used by the allocator.
type Flags uint8

// Register flags.
const (
	// FlagSpillTemp marks a register introduced by spill code. Such
	// ranges are minimal by construction; they get effectively
	// infinite spill cost so the allocator never re-spills them.
	FlagSpillTemp Flags = 1 << iota
	// FlagSplitTemp marks a loop-long subrange created by the
	// splitting spiller (a reload hoisted to a loop preheader). It
	// keeps a normal spill cost, but if it must spill again it
	// spills everywhere — re-splitting it would recreate the same
	// range forever.
	FlagSplitTemp
)

// Block is a basic block. The final instruction is always a
// terminator (OpBr/OpBrIf/OpRet); Succs holds the IDs of successor
// blocks in branch order.
type Block struct {
	ID     int
	Instrs []Instr
	Succs  []int
	Preds  []int
	Depth  int // loop nesting depth, filled by cfg.Analyze
}

// Func is a function in IR form.
type Func struct {
	Name    string
	Params  []Reg // registers holding incoming parameters, in order
	HasRet  bool
	RetCls  Class
	Blocks  []*Block
	regCls  []Class
	regFlag []Flags

	// Static storage layout (word addresses).
	StaticBase int64 // start of this function's static area
	StaticSize int64 // words of local-array storage
	NumSlots   int64 // spill slots allocated so far
}

// NumRegs returns the number of virtual registers in the function.
func (f *Func) NumRegs() int { return len(f.regCls) }

// NewReg allocates a fresh virtual register of class c.
func (f *Func) NewReg(c Class) Reg {
	f.regCls = append(f.regCls, c)
	f.regFlag = append(f.regFlag, 0)
	return Reg(len(f.regCls) - 1)
}

// NewSpillTemp allocates a fresh register flagged as spill traffic.
func (f *Func) NewSpillTemp(c Class) Reg {
	r := f.NewReg(c)
	f.regFlag[r] |= FlagSpillTemp
	return r
}

// RegClass returns the class of register r.
func (f *Func) RegClass(r Reg) Class { return f.regCls[r] }

// RegFlags returns the flags of register r.
func (f *Func) RegFlags(r Reg) Flags { return f.regFlag[r] }

// SetRegFlags replaces the flags of register r.
func (f *Func) SetRegFlags(r Reg, fl Flags) { f.regFlag[r] = fl }

// ResetRegs discards all registers and installs the given classes
// and flags; used by the renumbering pass.
func (f *Func) ResetRegs(cls []Class, flags []Flags) {
	f.regCls = cls
	f.regFlag = flags
}

// NewBlock appends a fresh empty block and returns it.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewSlot allocates a fresh spill slot and returns its number.
func (f *Func) NewSlot() int64 {
	s := f.NumSlots
	f.NumSlots++
	return s
}

// SlotAddr returns the absolute word address of spill slot s.
func (f *Func) SlotAddr(s int64) int64 { return f.StaticBase + f.StaticSize + s }

// RecomputePreds rebuilds every block's Preds from Succs.
func (f *Func) RecomputePreds() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			f.Blocks[s].Preds = append(f.Blocks[s].Preds, b.ID)
		}
	}
}

// RenameRegs renames every register f mentions, in its instructions
// and its parameters, to rep of it (NoReg stays NoReg), and deletes
// the moves that became self-copies. It returns how many it deleted.
func (f *Func) RenameRegs(rep func(Reg) Reg) int {
	ren := func(r Reg) Reg {
		if r == NoReg {
			return NoReg
		}
		return rep(r)
	}
	deleted := 0
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			in.Dst = ren(in.Dst)
			in.A = ren(in.A)
			in.B = ren(in.B)
			in.C = ren(in.C)
			for j, a := range in.Args {
				in.Args[j] = ren(a)
			}
			if in.IsMove() && in.Dst == in.A {
				deleted++
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	for i, p := range f.Params {
		f.Params[i] = ren(p)
	}
	return deleted
}

// Clone returns a deep copy of f. The allocator works on a clone so
// callers keep the pristine IR for re-running with other heuristics.
func (f *Func) Clone() *Func {
	nf := &Func{
		Name:       f.Name,
		Params:     append([]Reg(nil), f.Params...),
		HasRet:     f.HasRet,
		RetCls:     f.RetCls,
		regCls:     append([]Class(nil), f.regCls...),
		regFlag:    append([]Flags(nil), f.regFlag...),
		StaticBase: f.StaticBase,
		StaticSize: f.StaticSize,
		NumSlots:   f.NumSlots,
	}
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nb := &Block{
			ID:     b.ID,
			Instrs: make([]Instr, len(b.Instrs)),
			Succs:  append([]int(nil), b.Succs...),
			Preds:  append([]int(nil), b.Preds...),
			Depth:  b.Depth,
		}
		copy(nb.Instrs, b.Instrs)
		for j := range nb.Instrs {
			if nb.Instrs[j].Args != nil {
				nb.Instrs[j].Args = append([]Reg(nil), nb.Instrs[j].Args...)
			}
		}
		nf.Blocks[i] = nb
	}
	return nf
}

// NumInstrs returns the total instruction count.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Program is a compiled set of functions sharing a static-memory
// layout.
type Program struct {
	Funcs  []*Func
	byName map[string]*Func
	// StaticStart is the first word address used for static data;
	// everything below it is available to drivers for argument
	// arrays. StaticEnd is one past the last allocated static word.
	StaticStart int64
	StaticEnd   int64
}

// NewProgram returns an empty program whose static data starts at
// the given word address.
func NewProgram(staticStart int64) *Program {
	return &Program{byName: make(map[string]*Func), StaticStart: staticStart, StaticEnd: staticStart}
}

// Add appends a function to the program.
func (p *Program) Add(f *Func) {
	p.Funcs = append(p.Funcs, f)
	p.byName[f.Name] = f
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	if p == nil {
		return nil
	}
	return p.byName[name]
}

// regName renders a register for the printer.
func regName(r Reg) string {
	if r == NoReg {
		return "_"
	}
	return fmt.Sprintf("v%d", r)
}

// Fprint writes a readable listing of f to w.
func Fprint(w io.Writer, f *Func) {
	fmt.Fprintf(w, "func %s (regs=%d, blocks=%d, static=[%d,+%d), slots=%d)\n",
		f.Name, f.NumRegs(), len(f.Blocks), f.StaticBase, f.StaticSize, f.NumSlots)
	for _, b := range f.Blocks {
		fmt.Fprintf(w, "b%d: (depth=%d, preds=%v)\n", b.ID, b.Depth, b.Preds)
		for i := range b.Instrs {
			fmt.Fprintf(w, "\t%s\n", SprintInstr(f, &b.Instrs[i], b))
		}
	}
}

// SprintInstr renders one instruction.
func SprintInstr(f *Func, in *Instr, b *Block) string {
	var s strings.Builder
	switch in.Op {
	case OpParam:
		fmt.Fprintf(&s, "%s = param #%d", regName(in.Dst), in.Imm)
	case OpConst:
		if f != nil && in.Dst != NoReg && f.RegClass(in.Dst) == ClassFloat {
			fmt.Fprintf(&s, "%s = const %g", regName(in.Dst), in.FImm)
		} else {
			fmt.Fprintf(&s, "%s = const %d", regName(in.Dst), in.Imm)
		}
	case OpLoad:
		fmt.Fprintf(&s, "%s = load [%s+%s+%d]", regName(in.Dst), regName(in.B), regName(in.C), in.Imm)
	case OpStore:
		fmt.Fprintf(&s, "store [%s+%s+%d] = %s", regName(in.B), regName(in.C), in.Imm, regName(in.A))
	case OpAddI, OpMulI:
		fmt.Fprintf(&s, "%s = %s %s, %d", regName(in.Dst), in.Op, regName(in.A), in.Imm)
	case OpSpillLoad:
		fmt.Fprintf(&s, "%s = spld slot%d", regName(in.Dst), in.Imm)
	case OpSpillStore:
		fmt.Fprintf(&s, "spst slot%d = %s", in.Imm, regName(in.A))
	case OpBr:
		fmt.Fprintf(&s, "br b%d", in.targetOr(b, 0))
	case OpBrIf:
		fmt.Fprintf(&s, "brif.%s %s %s %s -> b%d b%d", in.Cls, regName(in.A), in.Cmp, regName(in.B),
			in.targetOr(b, 0), in.targetOr(b, 1))
	case OpRet:
		if in.A != NoReg {
			fmt.Fprintf(&s, "ret %s", regName(in.A))
		} else {
			s.WriteString("ret")
		}
	case OpCall:
		if in.Dst != NoReg {
			fmt.Fprintf(&s, "%s = call %s(", regName(in.Dst), in.Callee)
		} else {
			fmt.Fprintf(&s, "call %s(", in.Callee)
		}
		for i, a := range in.Args {
			if i > 0 {
				s.WriteString(", ")
			}
			s.WriteString(regName(a))
		}
		s.WriteString(")")
	default:
		if in.Dst != NoReg {
			fmt.Fprintf(&s, "%s = %s", regName(in.Dst), in.Op)
		} else {
			s.WriteString(in.Op.String())
		}
		for _, r := range [3]Reg{in.A, in.B, in.C} {
			if r != NoReg {
				fmt.Fprintf(&s, " %s", regName(r))
			}
		}
	}
	return s.String()
}

func (in *Instr) targetOr(b *Block, i int) int {
	if b != nil && i < len(b.Succs) {
		return b.Succs[i]
	}
	return -1
}

// Validate checks structural invariants of f: every block ends with
// exactly one terminator (and has no terminator earlier), successor
// counts match the terminator kind, Preds mirror Succs, operand
// register classes are consistent, and all register numbers are in
// range. It returns the first violation found, or nil.
func Validate(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", f.Name)
	}
	predCheck := make(map[[2]int]int)
	for i, b := range f.Blocks {
		if b.ID != i {
			return fmt.Errorf("%s: block %d has ID %d", f.Name, i, b.ID)
		}
		if len(b.Instrs) == 0 {
			return fmt.Errorf("%s: b%d is empty", f.Name, i)
		}
		for j := range b.Instrs {
			in := &b.Instrs[j]
			last := j == len(b.Instrs)-1
			if in.Op.IsTerminator() != last {
				return fmt.Errorf("%s: b%d instr %d: terminator placement", f.Name, i, j)
			}
			if err := f.validateInstr(in, b); err != nil {
				return fmt.Errorf("%s: b%d instr %d (%s): %w", f.Name, i, j, SprintInstr(f, in, b), err)
			}
		}
		want := 0
		switch b.Instrs[len(b.Instrs)-1].Op {
		case OpBr:
			want = 1
		case OpBrIf:
			want = 2
		}
		if len(b.Succs) != want {
			return fmt.Errorf("%s: b%d has %d successors, want %d", f.Name, i, len(b.Succs), want)
		}
		for _, s := range b.Succs {
			if s < 0 || s >= len(f.Blocks) {
				return fmt.Errorf("%s: b%d successor %d out of range", f.Name, i, s)
			}
			predCheck[[2]int{i, s}]++
		}
	}
	for _, b := range f.Blocks {
		for _, p := range b.Preds {
			if predCheck[[2]int{p, b.ID}] == 0 {
				return fmt.Errorf("%s: b%d lists pred b%d without matching succ", f.Name, b.ID, p)
			}
		}
	}
	return nil
}

func (f *Func) validateInstr(in *Instr, b *Block) error {
	check := func(r Reg, want Class, what string) error {
		if r == NoReg {
			return nil
		}
		if int(r) < 0 || int(r) >= f.NumRegs() {
			return fmt.Errorf("%s register v%d out of range", what, r)
		}
		if f.RegClass(r) != want {
			return fmt.Errorf("%s register v%d has class %s, want %s", what, r, f.RegClass(r), want)
		}
		return nil
	}
	anyClass := func(r Reg) error {
		if r != NoReg && (int(r) < 0 || int(r) >= f.NumRegs()) {
			return fmt.Errorf("register v%d out of range", r)
		}
		return nil
	}
	intOps := func(rs ...Reg) error {
		for _, r := range rs {
			if err := check(r, ClassInt, "operand"); err != nil {
				return err
			}
		}
		return nil
	}
	fltOps := func(rs ...Reg) error {
		for _, r := range rs {
			if err := check(r, ClassFloat, "operand"); err != nil {
				return err
			}
		}
		return nil
	}
	switch in.Op {
	case OpNop, OpParam, OpConst:
		return anyClass(in.Dst)
	case OpMove:
		if err := anyClass(in.Dst); err != nil {
			return err
		}
		if err := anyClass(in.A); err != nil {
			return err
		}
		if in.Dst != NoReg && in.A != NoReg && f.RegClass(in.Dst) != f.RegClass(in.A) {
			return fmt.Errorf("move between classes")
		}
	case OpItoF:
		if err := check(in.Dst, ClassFloat, "dst"); err != nil {
			return err
		}
		return intOps(in.A)
	case OpFtoI:
		if err := check(in.Dst, ClassInt, "dst"); err != nil {
			return err
		}
		return fltOps(in.A)
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpIMin, OpIMax, OpISign, OpIPow:
		if err := check(in.Dst, ClassInt, "dst"); err != nil {
			return err
		}
		return intOps(in.A, in.B)
	case OpNeg, OpIAbs, OpAddI, OpMulI:
		if err := check(in.Dst, ClassInt, "dst"); err != nil {
			return err
		}
		return intOps(in.A)
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFMin, OpFMax, OpFSign, OpFMod, OpFPow:
		if err := check(in.Dst, ClassFloat, "dst"); err != nil {
			return err
		}
		return fltOps(in.A, in.B)
	case OpFNeg, OpFAbs, OpFSqrt, OpFExp, OpFLog, OpFSin, OpFCos:
		if err := check(in.Dst, ClassFloat, "dst"); err != nil {
			return err
		}
		return fltOps(in.A)
	case OpLoad:
		if err := anyClass(in.Dst); err != nil {
			return err
		}
		return intOps(in.B, in.C)
	case OpStore:
		if err := anyClass(in.A); err != nil {
			return err
		}
		return intOps(in.B, in.C)
	case OpSpillLoad:
		return anyClass(in.Dst)
	case OpSpillStore:
		return anyClass(in.A)
	case OpBr:
		return nil
	case OpBrIf:
		if in.Cls == ClassInt {
			return intOps(in.A, in.B)
		}
		return fltOps(in.A, in.B)
	case OpRet:
		return anyClass(in.A)
	case OpCall:
		if err := anyClass(in.Dst); err != nil {
			return err
		}
		for _, a := range in.Args {
			if err := anyClass(a); err != nil {
				return err
			}
		}
	}
	return nil
}
