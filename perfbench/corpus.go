package main

import (
	"fmt"
	"syscall"
	"unsafe"

	"regalloc"
	"regalloc/internal/asm"
	"regalloc/internal/experiments"
	"regalloc/internal/ir"
	"regalloc/internal/irgen"
	"regalloc/internal/opt"
	"regalloc/internal/parser"
	"regalloc/internal/sem"
	"regalloc/internal/vm"
	"regalloc/internal/workloads"
)

// suiteProgram is one program of the Figure 5 suite (plus QSORT) with
// its dynamic scenario and the scenario's reference result.
type suiteProgram struct {
	name     string
	source   string
	routines []string
	// driver runs the program's dynamic scenario; nil for CEDETA,
	// which the paper runs statically only.
	driver experiments.DriverFunc
	// ref is the driver's digest on the reference IR interpreter: the
	// answer every allocated build must reproduce on the VM.
	ref uint64
	// mem is the simulator memory every run of this program reuses;
	// raw is the same mapping as bytes.
	mem []uint64
	raw []byte
}

// simMemory returns this program's simulator memory, all zero. It is
// mapped outside the Go heap: the simulated machine's 32 MiB is not
// the compiler's memory, so it must not pace the collector or count
// in peak RSS. MADV_DONTNEED re-zeroes it by dropping only the pages
// the last run touched.
func (p *suiteProgram) simMemory(words int) ([]uint64, error) {
	if len(p.mem) == words {
		if err := syscall.Madvise(p.raw, syscall.MADV_DONTNEED); err != nil {
			return nil, fmt.Errorf("resetting simulator memory: %w", err)
		}
		return p.mem, nil
	}
	p.release()
	raw, err := syscall.Mmap(-1, 0, words*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping simulator memory: %w", err)
	}
	p.raw, p.mem = raw, unsafe.Slice((*uint64)(unsafe.Pointer(&raw[0])), words)
	return p.mem, nil
}

// release unmaps the simulator memory.
func (p *suiteProgram) release() {
	if p.raw != nil {
		syscall.Munmap(p.raw) // only fails for a mapping we never made
		p.raw, p.mem = nil, nil
	}
}

// newVM returns a simulator over code, on the program's memory.
func (p *suiteProgram) newVM(code *asm.Program, words int) (*vm.VM, error) {
	mem, err := p.simMemory(words)
	if err != nil {
		return nil, err
	}
	m := regalloc.NewVM(code, 0)
	m.Mem = mem
	return m, nil
}

// loadSuite returns the 29-unit corpus: the five Figure 5 programs
// and QSORT, each with its reference digest computed on irinterp.
func loadSuite() ([]*suiteProgram, error) {
	drivers := make(map[string]experiments.DriverFunc)
	for _, d := range experiments.Drivers() {
		drivers[d.Workload.Program] = d.Run
	}
	var out []*suiteProgram
	for _, w := range append(workloads.All(), workloads.Quicksort()) {
		p := &suiteProgram{name: w.Program, source: w.Source, routines: w.Routines, driver: drivers[w.Program]}
		if p.driver != nil {
			prog, err := regalloc.Compile(w.Source)
			if err != nil {
				return nil, fmt.Errorf("corpus: %s: %w", w.Program, err)
			}
			it := prog.NewInterp(0)
			if it.Mem, err = p.simMemory(prog.MemWords()); err != nil {
				return nil, err
			}
			if p.ref, err = p.driver(experiments.InterpEngine{I: it}); err != nil {
				return nil, fmt.Errorf("corpus: %s reference run: %w", w.Program, err)
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// releaseSuite unmaps every program's simulator memory.
func releaseSuite(suite []*suiteProgram) {
	for _, p := range suite {
		p.release()
	}
}

// frontEnd compiles source to optimized IR one layer at a time, so
// each layer gets its own span: the same steps regalloc.Compile takes.
func frontEnd(src string, rec *recorder, parent int) (*ir.Program, error) {
	id := rec.begin("parse", parent)
	tree, err := parser.Parse(src)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	id = rec.begin("sem", parent)
	info, err := sem.Check(tree)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	id = rec.begin("irgen", parent)
	prog, err := irgen.Gen(tree, info, irgen.DefaultStaticStart)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	id = rec.begin("opt", parent)
	instrs := 0
	for _, f := range prog.Funcs {
		opt.Run(f)
		if err := ir.Validate(f); err != nil {
			rec.end(id)
			return nil, fmt.Errorf("optimize: %w", err)
		}
		instrs += f.NumInstrs()
	}
	rec.end(id)
	rec.set(id, "ir_instrs", instrs)
	return prog, nil
}
