package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"regalloc"
	"regalloc/internal/alloc"
	"regalloc/internal/asm"
	"regalloc/internal/experiments"
	"regalloc/internal/ir"
	"regalloc/internal/portfolio"
)

// raceRegs is the portfolio workload's register file: the paper's.
var raceRegs = regs{16, 8}

// raceWorkers is how many candidates race at once: one per CPU of
// the 2-CPU host the benchmark is sized for.
const raceWorkers = 2

// raceSession times the portfolio: one operation is a RaceToBest
// sweep of the default 11-candidate portfolio over all 29 units.
type raceSession struct {
	suite []*suiteProgram
	progs []*regalloc.Program // compiled suite, same order
	cands []regalloc.PortfolioCandidate
	rng   *rand.Rand // unit order per sweep
}

func openRace(cfg config) (session, error) {
	suite, err := loadSuite()
	if err != nil {
		return nil, err
	}
	s := &raceSession{
		suite: suite,
		cands: regalloc.DefaultPortfolio(raceRegs.options()),
		rng:   seeded(cfg.seed, 2),
	}
	for _, p := range suite {
		prog, err := regalloc.Compile(p.source)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", p.name, err)
		}
		s.progs = append(s.progs, prog)
	}
	// A warm-up operation is one unit's race, not a sweep: three
	// sweeps would triple the setup time for no further warming.
	for i := 0; i < warmups; i++ {
		p := s.progs[i%len(s.progs)]
		if _, err := s.race(p, p.Functions()[0]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *raceSession) close() error {
	releaseSuite(s.suite)
	return nil
}

// funcs lists every unit of the compiled suite.
func (s *raceSession) funcs() []*ir.Func {
	var out []*ir.Func
	for _, p := range s.progs {
		out = append(out, p.IR.Funcs...)
	}
	return out
}

func (s *raceSession) race(p *regalloc.Program, unit string) (*regalloc.PortfolioResult, error) {
	return p.AllocatePortfolio(context.Background(), unit, s.cands,
		regalloc.PortfolioConfig{Mode: regalloc.RaceToBest, Workers: raceWorkers})
}

func (s *raceSession) measure(until time.Time, rec *recorder) *tally {
	t := newTally()
	start := time.Now()
	var useful, total []float64
	candMS := make(map[string][]float64)
	var last *sweepStats
	for time.Now().Before(until) {
		n := len(t.opMS)
		sw := s.operate(t, rec)
		t.calibrate(n)
		if sw == nil {
			continue
		}
		for name, d := range sw.candMS {
			candMS[name] = append(candMS[name], d)
		}
		useful, total = append(useful, sw.winnersMS), append(total, sw.allMS)
		last = sw
	}
	t.wall = time.Since(start)
	t.peakRSSMB = peakRSSMB()
	// Per sweep, each candidate's run time, wins and errors; wins and
	// errors repeat exactly from sweep to sweep.
	for _, c := range s.cands {
		name := candName(c.Name)
		t.layers["cand_ms."+name] = median(candMS[name])
		t.layers["cand_wins."+name] = 0
		t.layers["cand_errors."+name] = 0
		if last != nil {
			t.layers["cand_wins."+name] = float64(last.wins[name])
			t.layers["cand_errors."+name] = float64(last.errs[name])
		}
	}
	t.layers["race_useful_ratio"] = 0
	if m := median(total); m > 0 {
		t.layers["race_useful_ratio"] = median(useful) / m
	}
	return t
}

// candName is a candidate's label as a metric-name suffix.
func candName(label string) string { return strings.ReplaceAll(label, "/", "-") }

// sweepStats is what one sweep's race reports say, summed over units.
type sweepStats struct {
	candMS    map[string]float64 // each candidate's summed run time
	winnersMS float64            // the winners' summed run time
	allMS     float64            // every candidate's summed run time
	wins      map[string]int
	errs      map[string]int
}

// operate races every unit once in a seeded order, then checks each
// race: a winner exists, passes alloc.VerifyAssignment and costs no
// more than the briggs candidate; lowered, the winners reproduce every
// driver's irinterp digest on the VM.
func (s *raceSession) operate(t *tally, rec *recorder) *sweepStats {
	order := s.rng.Perm(len(s.progs))
	settle()
	rec.nextTrace()
	root := rec.begin("sweep", -1)
	t.attempted++
	sw := &sweepStats{candMS: make(map[string]float64), wins: make(map[string]int), errs: make(map[string]int)}
	results := make([][]*regalloc.PortfolioResult, len(s.progs))
	var errs []error
	a0, c0, t0 := allocated(), cpuTime(), time.Now()
	for _, i := range order {
		p := s.progs[i]
		for _, u := range p.Functions() {
			id := rec.begin("race", root)
			pr, err := s.race(p, u)
			rec.end(id)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			results[i] = append(results[i], pr)
			if rec != nil {
				// The candidates run inside the portfolio, where the
				// benchmark cannot open spans; their own timings ride
				// on the race's span.
				rec.set(id, "unit", u)
				rec.set(id, "winner", pr.Outcomes[pr.Winner].Name)
				for _, o := range pr.Outcomes {
					rec.set(id, "cand_ms."+candName(o.Name), ms(o.Duration))
				}
			}
		}
	}
	wall, cpu, alloc := time.Since(t0), cpuTime()-c0, allocated()-a0
	rec.end(root)
	if rec != nil {
		if err := probeAll(s.funcs(), raceRegs.options(), rec); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		t.fail(errors.Join(errs...))
		return nil
	}
	var q quality
	for i, prs := range results {
		pq, perrs := s.checkProgram(s.suite[i], s.progs[i], prs, sw)
		q.add(pq)
		errs = append(errs, perrs...)
	}
	if len(errs) > 0 {
		t.fail(errors.Join(errs...))
		return nil
	}
	t.op(wall, cpu, alloc)
	q.record(t)
	return sw
}

// checkProgram checks one program's races, folds their reports into
// sw, and measures the quality of the winners' code.
func (s *raceSession) checkProgram(p *suiteProgram, prog *regalloc.Program, prs []*regalloc.PortfolioResult, sw *sweepStats) (q quality, errs []error) {
	m := raceRegs.machine()
	code := asm.NewProgram()
	for _, pr := range prs {
		win := pr.Outcomes[pr.Winner]
		for _, o := range pr.Outcomes {
			name := candName(o.Name)
			d := ms(o.Duration)
			sw.candMS[name] += d
			sw.allMS += d
			switch o.Status {
			case portfolio.Errored:
				sw.errs[name]++
			case portfolio.Finished:
				if o.Name == "briggs" && win.SpillCostMilli > o.SpillCostMilli {
					errs = append(errs, fmt.Errorf("%s: winner %s costs %d, more than briggs's %d",
						pr.Res.Func.Name, win.Name, win.SpillCostMilli, o.SpillCostMilli))
				}
			}
		}
		sw.winnersMS += ms(win.Duration)
		sw.wins[candName(win.Name)]++
		if err := alloc.VerifyAssignment(pr.Res.Func, pr.Res.Colors); err != nil {
			errs = append(errs, err)
			continue
		}
		af, err := asm.Lower(pr.Res.Func, pr.Res.Colors, m)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		code.Add(af)
		uq := staticQuality(pr.Res, af)
		uq.CostMilli = win.SpillCostMilli
		q.add(uq)
	}
	if p.driver == nil || len(errs) > 0 {
		return q, errs
	}
	vm, err := p.newVM(code, prog.MemWords())
	if err != nil {
		return q, append(errs, err)
	}
	digest, err := p.driver(experiments.VMEngine{M: vm})
	switch {
	case err != nil:
		errs = append(errs, fmt.Errorf("%s winners on the VM: %w", p.name, err))
	case digest != p.ref:
		errs = append(errs, fmt.Errorf("%s winners on the VM: digest %x, irinterp reference %x", p.name, digest, p.ref))
	}
	q.Cycles = vm.Cycles
	return q, errs
}
