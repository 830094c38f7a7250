package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"regalloc"
	"regalloc/internal/alloc"
	"regalloc/internal/asm"
	"regalloc/internal/experiments"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
	"regalloc/internal/target"
)

// compileSession times the whole compiler over the suite: one
// operation is source → front end → Briggs allocation → asm.Lower for
// all 29 units, one worker. The five VM drivers then run the result
// outside the timed region.
type compileSession struct {
	suite []*suiteProgram
	r     regs
	rng   *rand.Rand // program order per operation
}

func openCompile(r regs) func(config) (session, error) {
	return func(cfg config) (session, error) {
		suite, err := loadSuite()
		if err != nil {
			return nil, err
		}
		s := &compileSession{suite: suite, r: r, rng: seeded(cfg.seed, 1)}
		warm := newTally()
		for i := 0; i < warmups; i++ {
			s.operate(warm, nil)
		}
		if warm.failed > 0 {
			return nil, fmt.Errorf("warm-up: %w", warm.errs[0])
		}
		return s, nil
	}
}

func (s *compileSession) close() error {
	releaseSuite(s.suite)
	return nil
}

func (s *compileSession) measure(until time.Time, rec *recorder) *tally {
	t := newTally()
	start := time.Now()
	for time.Now().Before(until) {
		n := len(t.opMS)
		s.operate(t, rec)
		t.calibrate(n)
	}
	t.wall = time.Since(start)
	t.peakRSSMB = peakRSSMB()
	return t
}

// operate compiles the suite once in a seeded program order, then
// checks the output and records its quality counts. On the traced
// pass it also runs the layer probe over the same IR.
func (s *compileSession) operate(t *tally, rec *recorder) {
	order := s.rng.Perm(len(s.suite))
	settle()
	rec.nextTrace()
	root := rec.begin("compile", -1)
	t.attempted++
	out := make([]*compiled, len(s.suite))
	var err error
	a0, c0, t0 := allocated(), cpuTime(), time.Now()
	for _, i := range order {
		if out[i], err = compileProgram(s.suite[i].source, s.r, rec, root); err != nil {
			break
		}
	}
	wall, cpu, alloc := time.Since(t0), cpuTime()-c0, allocated()-a0
	if err != nil {
		rec.end(root)
		t.fail(err)
		return
	}
	var q quality
	var errs []error
	for i, p := range s.suite {
		pq, perrs := check(p, out[i], rec, root)
		q.add(pq)
		errs = append(errs, perrs...)
	}
	rec.end(root)
	if rec != nil {
		var funcs []*ir.Func
		for _, c := range out {
			funcs = append(funcs, c.ir.Funcs...)
		}
		if err := probeAll(funcs, s.r.options(), rec); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		t.fail(errors.Join(errs...))
		return
	}
	t.op(wall, cpu, alloc)
	q.record(t)
}

// regs is a register-file size: the allocator's K per class and the
// machine the code is lowered for.
type regs struct{ kInt, kFloat int }

func (r regs) options() alloc.Options {
	o := alloc.DefaultOptions()
	o.KInt, o.KFloat = r.kInt, r.kFloat
	o.Workers = 1
	return o
}

func (r regs) machine() target.Machine {
	return target.RTPC().WithGPR(r.kInt).WithFPR(r.kFloat)
}

// compiled is one program taken from source to machine code.
type compiled struct {
	ir      *ir.Program
	code    *asm.Program
	results []*alloc.Result // one per unit, in source order
}

// compileProgram runs the whole compiler on one program: front end,
// Briggs allocation of every unit, and asm.Lower.
func compileProgram(src string, r regs, rec *recorder, parent int) (*compiled, error) {
	prog, err := frontEnd(src, rec, parent)
	if err != nil {
		return nil, err
	}
	out := &compiled{ir: prog, code: asm.NewProgram()}
	opt, m := r.options(), r.machine()
	for _, f := range prog.Funcs {
		id := rec.begin("alloc", parent)
		res, err := alloc.RunContext(context.Background(), f, opt)
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("alloc %s: %w", f.Name, err)
		}
		if rec != nil {
			c := passCounts(res)
			rec.set(id, "passes", len(res.Passes))
			rec.set(id, "live_ranges", c.LiveRanges)
			rec.set(id, "graph_edges", c.Edges)
			rec.set(id, "coalesced_moves", c.CoalescedMoves)
			rec.set(id, "spilled_ranges", c.Spilled)
			rec.set(id, "scan_steps", c.ScanSteps)
		}
		id = rec.begin("lower", parent)
		af, err := asm.Lower(res.Func, res.Colors, m)
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("lower %s: %w", f.Name, err)
		}
		out.code.Add(af)
		out.results = append(out.results, res)
	}
	return out, nil
}

// passCounts sums the work counters of every pass of one allocation.
func passCounts(res *alloc.Result) alloc.PassStats {
	var t alloc.PassStats
	for _, p := range res.Passes {
		t.LiveRanges += p.LiveRanges
		t.Edges += p.Edges
		t.CoalescedMoves += p.CoalescedMoves
		t.Spilled += p.Spilled
		t.SpillCost += p.SpillCost
		t.LoadsInserted += p.LoadsInserted
		t.StoresInserted += p.StoresInserted
		t.ScanSteps += p.ScanSteps
	}
	return t
}

// quality is what the paper measures of the generated code: dynamic
// cycles, object size, spill code and copies, and estimated spill
// cost. All are exact counts, identical run to run.
type quality struct {
	Cycles      uint64
	ObjectBytes int
	SpillOps    int
	CopiesLeft  int
	CostMilli   int64
}

// record stores q as the tally's exact results.
func (q quality) record(t *tally) {
	t.setExact("vm_cycles", float64(q.Cycles))
	t.setExact("object_bytes", float64(q.ObjectBytes))
	t.setExact("spill_ops", float64(q.SpillOps))
	t.setExact("copies_left", float64(q.CopiesLeft))
	t.setExact("spill_cost", float64(q.CostMilli))
}

func (q *quality) add(o quality) {
	q.Cycles += o.Cycles
	q.ObjectBytes += o.ObjectBytes
	q.SpillOps += o.SpillOps
	q.CopiesLeft += o.CopiesLeft
	q.CostMilli += o.CostMilli
}

// staticQuality measures one allocated, lowered unit.
func staticQuality(res *alloc.Result, af *asm.Func) quality {
	c := passCounts(res)
	q := quality{
		ObjectBytes: af.ObjectSize(),
		SpillOps:    c.LoadsInserted + c.StoresInserted,
		CostMilli:   obs.SpillCostMilli(c.SpillCost),
	}
	for i := range af.Code {
		if af.Code[i].Op == ir.OpMove {
			q.CopiesLeft++
		}
	}
	return q
}

// check verifies one compiled program, outside any timed region:
// every allocation passes alloc.VerifyAssignment, and the program's
// dynamic scenario reproduces the irinterp reference digest on the VM.
// It returns the program's quality counts and the number of failed
// checks; each failure is described in errs.
func check(p *suiteProgram, c *compiled, rec *recorder, parent int) (q quality, errs []error) {
	for i, res := range c.results {
		if err := alloc.VerifyAssignment(res.Func, res.Colors); err != nil {
			errs = append(errs, err)
		}
		q.add(staticQuality(res, c.code.Funcs[i]))
	}
	if p.driver == nil {
		return q, errs
	}
	id := rec.begin("vm", parent)
	m, err := p.newVM(c.code, (&regalloc.Program{IR: c.ir}).MemWords())
	if err != nil {
		rec.end(id)
		return q, append(errs, err)
	}
	digest, err := p.driver(experiments.VMEngine{M: m})
	rec.end(id)
	switch {
	case err != nil:
		errs = append(errs, fmt.Errorf("%s on the VM: %w", p.name, err))
	case digest != p.ref:
		errs = append(errs, fmt.Errorf("%s on the VM: digest %x, irinterp reference %x", p.name, digest, p.ref))
	}
	q.Cycles = m.Cycles
	return q, errs
}
