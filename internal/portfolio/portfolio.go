// Package portfolio is the heuristic-portfolio racing engine: it
// takes one compilation unit and a candidate set of allocator
// strategies (each a full alloc.Options variant — pessimistic
// Chaitin, optimistic Briggs, spill-metric and ordering variants, the
// SSA-form chordal allocator, iterated register coalescing, and the
// speculative pcolor engine under several seeds), runs them
// concurrently on a bounded worker pool under a shared deadline, and
// keeps the cheapest independently verified result. Candidates whose
// first Build reads the same options share it (see Shared Build
// below).
//
// The paper's core observation motivates it: heuristic *choice*
// changes what spills, per procedure, and no single heuristic wins on
// every unit. Racing a battery of strategies and keeping the best —
// the move Das et al.'s hybrid allocator and Abu-Khzam & Chahine's
// re-seeded restarts both make — buys the per-unit minimum at the
// price of bounded extra compute.
//
// # Selection order
//
// The winner is chosen among candidates that finished AND passed the
// assignment oracle (alloc.VerifyAssignment, which recomputes
// liveness from scratch; alloc.Run has already re-verified each
// coloring against its own graph with color.Verify), by:
//
//  1. lowest total spill cost, compared in fixed-point milli units
//     (float ties would be scheduling-dependent; integers are not),
//  2. then fewest spilled live ranges,
//  3. then lowest candidate index.
//
// Because every started candidate is joined before selection and the
// comparison key is totally ordered, the winner is a pure function of
// the candidate outcomes — goroutine finish order cannot change it.
//
// # Budget semantics
//
// The context (plus the optional Config.Budget deadline) bounds the
// *start* of new work: a single-unit allocation has no preemption
// point, so candidates already in flight run to completion and are
// recorded as finishers, while candidates not yet started when the
// budget expires are marked cancelled without ever spawning a
// goroutine. Race always joins in-flight work before returning, so no
// goroutine — and no buffered observer event — outlives the call.
//
// In RaceToBest mode every candidate the budget admits runs to
// completion, so a fixed (candidates, budget-that-admits-all, seeds)
// triple always yields the same winner. In FirstGood mode the first
// verified zero-spill finisher cancels the stragglers; that trades
// winner determinism (a lower-indexed candidate may be cancelled
// before it can post its own zero-spill result) for latency, which is
// the point of the mode.
//
// # Shared Build
//
// The heuristics differ only after Build, so each race makes one
// alloc.Starts from its candidates' options, and candidates whose pass
// 0 Build reads the same options (Coalesce, ConservativeCoalesce with
// K, Machine, Rematerialize, CostParams) share one. The first of a
// group to start builds inside its own pass 0; each member forks a
// private copy of the function and its liveness and reads the graph,
// costs and CFG analysis shared. Outcomes are exactly those of
// standalone alloc.RunContext runs. Of the default candidates on the
// default options, the nine other than ssa (no Figure 4 cycle) and irc
// (a conservative baseline) form one group; with ConservativeCoalesce
// irc joins them. The Build runs inside an admitted
// candidate, so the budget semantics above hold unchanged, except that
// a candidate that starts while its group's Build runs waits for it.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"regalloc/internal/alloc"
	"regalloc/internal/color"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
	"regalloc/internal/pcolor"
	"regalloc/internal/reqtrace"
)

// Mode selects the race's stopping rule.
type Mode int

const (
	// RaceToBest runs every candidate the budget admits to completion
	// and selects the cheapest verified result. Fully deterministic
	// for a fixed candidate set when the budget admits all of them.
	RaceToBest Mode = iota
	// FirstGood cancels candidates not yet started as soon as one
	// verified zero-spill result lands; in-flight candidates still
	// run to completion and compete in selection.
	FirstGood
)

func (m Mode) String() string {
	switch m {
	case RaceToBest:
		return "race-to-best"
	case FirstGood:
		return "first-good"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the CLI/query spelling of a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "race", "race-to-best", "best":
		return RaceToBest, nil
	case "first-good", "firstgood", "first":
		return FirstGood, nil
	}
	return 0, fmt.Errorf("portfolio: unknown mode %q (want race-to-best or first-good)", s)
}

// Candidate is one strategy in the race: a label and the full
// allocator configuration it runs under. The Observer field of Opt is
// ignored — the engine wires each candidate its own child sink (see
// Config.Observer) so concurrent candidates cannot interleave events
// on a shared sink.
type Candidate struct {
	Name string
	Opt  alloc.Options
}

// Config tunes one race.
type Config struct {
	// Mode is the stopping rule (default RaceToBest).
	Mode Mode
	// Workers bounds how many candidates run concurrently; <= 0 means
	// GOMAXPROCS. It is independent of each candidate's own
	// Opt.Workers and of the pcolor engine's fixed worker count.
	Workers int
	// Budget, when > 0, is a wall-clock deadline for starting new
	// candidates, layered onto the caller's context. See the package
	// comment for the exact semantics.
	Budget time.Duration
	// Observer, when non-nil, receives the race's event stream: each
	// candidate's allocator events re-attributed to the unit name
	// "UNIT#candidate" (its own Perfetto track in traceevent), plus
	// the portfolio.* counters summarizing the race. Candidate events
	// are buffered in per-candidate child sinks while the race runs
	// and flushed in candidate order after the join, so the stream
	// seen by Observer is deterministic and single-goroutine.
	Observer obs.Sink
	// Acquire and Release, when both non-nil, gate each candidate
	// start against an external admission limiter (cmd/allocd counts
	// candidates against its -max-inflight semaphore this way).
	// Acquire blocks until a slot frees or its context is done — its
	// error cancels that candidate, not the race; Release returns the
	// slot when the candidate's goroutine exits.
	Acquire func(context.Context) error
	Release func()
}

// Status classifies one candidate's outcome.
type Status int

const (
	// Finished: ran to completion and passed verification.
	Finished Status = iota
	// Cancelled: the budget, context, or first-good cutoff expired
	// before the candidate started.
	Cancelled
	// Errored: the allocator returned an error or the result failed
	// the assignment oracle.
	Errored
)

func (s Status) String() string {
	switch s {
	case Finished:
		return "finished"
	case Cancelled:
		return "cancelled"
	case Errored:
		return "errored"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Outcome is one candidate's record in the race report.
type Outcome struct {
	Name   string
	Index  int
	Status Status
	Err    error // Errored only

	Spills         int
	SpillCostMilli int64
	Passes         int
	Duration       time.Duration

	// Result is the candidate's full allocation; kept for every
	// finisher so differential tooling can compare losers against the
	// winner. Nil unless Status == Finished.
	Result *alloc.Result
}

// Result is a completed race.
type Result struct {
	// Winner indexes Outcomes; Res is Outcomes[Winner].Result.
	Winner int
	Res    *alloc.Result
	// WinMarginMilli is the cheapest losing finisher's spill cost
	// minus the winner's, in fixed-point milli units (0 when the
	// winner is the only finisher).
	WinMarginMilli int64
	Mode           Mode
	Outcomes       []Outcome
}

// Counts tallies the outcome statuses (started is finished+errored).
func (r *Result) Counts() (started, finished, cancelled, errored int) {
	for _, o := range r.Outcomes {
		switch o.Status {
		case Finished:
			finished++
		case Cancelled:
			cancelled++
		case Errored:
			errored++
		}
	}
	return finished + errored, finished, cancelled, errored
}

// ErrNoCandidates reports an empty candidate set.
var ErrNoCandidates = errors.New("portfolio: no candidates")

// ErrNoWinner reports that no candidate finished and verified; it
// wraps the context error (budget exhausted before anything started)
// or the first candidate error when every started candidate failed.
var ErrNoWinner = errors.New("portfolio: no candidate finished")

// captureSink buffers one candidate's allocator events, re-stamped
// with the candidate-qualified unit name. Buffering (instead of
// forwarding live) is what keeps concurrent candidates from
// interleaving on the parent sink: the race flushes every capture
// sequentially, in candidate order, after joining all goroutines.
type captureSink struct {
	mu     sync.Mutex
	unit   string
	events []obs.Event
}

func (c *captureSink) Emit(e obs.Event) {
	e.Unit = c.unit
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// flush forwards the buffered events to parent. Called after the
// candidate's goroutine has been joined, so no lock is contended; the
// lock is still taken to keep the race detector's model exact.
func (c *captureSink) flush(parent obs.Sink) {
	c.mu.Lock()
	events := c.events
	c.events = nil
	c.mu.Unlock()
	for _, e := range events {
		parent.Emit(e)
	}
}

// summarize folds a finished allocation into the selection key.
func summarize(res *alloc.Result) (spills int, costMilli int64) {
	var cost float64
	for _, p := range res.Passes {
		spills += p.Spilled
		cost += p.SpillCost
	}
	return spills, obs.SpillCostMilli(cost)
}

// Race runs the candidate strategies against f and returns the
// race report with the cheapest verified result selected as winner.
// Candidate options are validated up front (the typed alloc errors),
// so a misconfigured candidate fails the whole race loudly instead of
// silently losing it.
func Race(ctx context.Context, f *ir.Func, cands []Candidate, cfg Config) (*Result, error) {
	if len(cands) == 0 {
		return nil, ErrNoCandidates
	}
	opts := make([]alloc.Options, len(cands))
	for i := range cands {
		if err := cands[i].Opt.Validate(); err != nil {
			return nil, fmt.Errorf("portfolio: candidate %d (%s): %w", i, cands[i].Name, err)
		}
		opts[i] = cands[i].Opt
	}
	// Candidates whose pass 0 Builds read the same options share one
	// (see alloc.Starts).
	starts := alloc.NewStarts(f, opts)
	if cfg.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Budget)
		defer cancel()
	}
	// raceCtx is what the first-good cutoff cancels; the budget and
	// the caller's context flow into it.
	raceCtx, stopStragglers := context.WithCancel(ctx)
	defer stopStragglers()

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}

	// One child span per started candidate; the winner's span is
	// annotated after selection. Candidate allocations run on a
	// context derived from Background — not raceCtx — so the budget's
	// start-of-work-only semantics survive the tracing: a cutoff still
	// cannot preempt an in-flight candidate.
	rt, raceParent := reqtrace.FromContext(ctx)
	spanIDs := make([]uint32, len(cands))

	outcomes := make([]Outcome, len(cands))
	captures := make([]*captureSink, len(cands))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, c := range cands {
		outcomes[i] = Outcome{Name: c.Name, Index: i, Status: Cancelled}
		// A done context always wins the race against a free worker
		// slot (mirrors regalloc's allocUnits).
		if raceCtx.Err() != nil {
			continue
		}
		select {
		case <-raceCtx.Done():
			continue
		case sem <- struct{}{}:
		}
		// Re-check after winning the slot: when a finisher frees its
		// slot right after triggering the first-good cutoff, both
		// select cases are ready and the choice is random — this check
		// makes "a done context wins" deterministic.
		if raceCtx.Err() != nil {
			<-sem
			continue
		}
		if cfg.Acquire != nil && cfg.Release != nil {
			if err := cfg.Acquire(raceCtx); err != nil {
				<-sem
				continue // cancelled while queued for admission
			}
		}
		if cfg.Observer != nil {
			captures[i] = &captureSink{unit: f.Name + "#" + c.Name}
		}
		wg.Add(1)
		go func(i int, c Candidate) {
			defer wg.Done()
			defer func() { <-sem }()
			if cfg.Release != nil && cfg.Acquire != nil {
				defer cfg.Release()
			}
			opt := c.Opt
			opt.Observer = nil
			if captures[i] != nil {
				opt.Observer = captures[i]
			}
			candID, endCand := rt.StartSpan(raceParent, "candidate:"+c.Name)
			spanIDs[i] = candID
			candCtx := reqtrace.ContextWith(context.Background(), rt, candID)
			t0 := time.Now()
			res, err := starts.RunContext(candCtx, opt)
			d := time.Since(t0)
			if err == nil {
				err = alloc.VerifyAssignment(res.Func, res.Colors)
			}
			if err != nil {
				endCand(reqtrace.Attr{Key: "status", Value: "errored"},
					reqtrace.Attr{Key: "error", Value: err.Error()})
				outcomes[i] = Outcome{Name: c.Name, Index: i, Status: Errored, Err: err, Duration: d}
				return
			}
			spills, costMilli := summarize(res)
			endCand(reqtrace.Attr{Key: "status", Value: "finished"},
				reqtrace.Attr{Key: "spills", Value: strconv.Itoa(spills)},
				reqtrace.Attr{Key: "spill_cost_milli", Value: strconv.FormatInt(costMilli, 10)})
			outcomes[i] = Outcome{
				Name: c.Name, Index: i, Status: Finished,
				Spills: spills, SpillCostMilli: costMilli,
				Passes: len(res.Passes), Duration: d, Result: res,
			}
			if cfg.Mode == FirstGood && spills == 0 {
				stopStragglers()
			}
		}(i, c)
	}
	wg.Wait()
	if startsObserver != nil {
		startsObserver(starts)
	}

	// Flush candidate events in index order: the parent sink sees one
	// deterministic, single-goroutine stream.
	if cfg.Observer != nil {
		for _, cs := range captures {
			if cs != nil {
				cs.flush(cfg.Observer)
			}
		}
	}

	winner := -1
	for i := range outcomes {
		if outcomes[i].Status != Finished {
			continue
		}
		if winner < 0 || less(&outcomes[i], &outcomes[winner]) {
			winner = i
		}
	}
	if winner < 0 {
		var firstErr error
		for i := range outcomes {
			if outcomes[i].Err != nil {
				firstErr = outcomes[i].Err
				break
			}
		}
		switch {
		case firstErr != nil:
			return nil, fmt.Errorf("%w: %s: first failure: %v", ErrNoWinner, f.Name, firstErr)
		case ctx.Err() != nil:
			return nil, fmt.Errorf("%w: %s: %v", ErrNoWinner, f.Name, ctx.Err())
		default:
			return nil, fmt.Errorf("%w: %s", ErrNoWinner, f.Name)
		}
	}
	rt.AddAttr(spanIDs[winner], "winner", "true")
	r := &Result{Winner: winner, Res: outcomes[winner].Result, Mode: cfg.Mode, Outcomes: outcomes}
	margin := int64(-1)
	for i := range outcomes {
		if i == winner || outcomes[i].Status != Finished {
			continue
		}
		if d := outcomes[i].SpillCostMilli - outcomes[winner].SpillCostMilli; margin < 0 || d < margin {
			margin = d
		}
	}
	if margin > 0 {
		r.WinMarginMilli = margin
	}
	emitCounters(cfg.Observer, f.Name, r)
	return r, nil
}

// startsObserver, when non-nil, sees each race's shared-Build memo
// once the race has joined its candidates. Tests install it to hold
// the shared starts to fresh builds.
var startsObserver func(*alloc.Starts)

// less is the selection order: (spill cost milli, spills, index),
// all ascending. Both outcomes must be Finished.
func less(a, b *Outcome) bool {
	if a.SpillCostMilli != b.SpillCostMilli {
		return a.SpillCostMilli < b.SpillCostMilli
	}
	if a.Spills != b.Spills {
		return a.Spills < b.Spills
	}
	return a.Index < b.Index
}

// emitCounters publishes the race summary on the parent sink, under
// the unqualified unit name (the per-candidate streams carry the
// qualified ones).
func emitCounters(sink obs.Sink, unit string, r *Result) {
	tr := obs.New(sink, unit)
	if !tr.Enabled() {
		return
	}
	started, finished, cancelled, errored := r.Counts()
	tr.Counter(obs.PhaseColor, "portfolio.candidates", int64(len(r.Outcomes)))
	tr.Counter(obs.PhaseColor, "portfolio.started", int64(started))
	tr.Counter(obs.PhaseColor, "portfolio.finished", int64(finished))
	tr.Counter(obs.PhaseColor, "portfolio.cancelled", int64(cancelled))
	tr.Counter(obs.PhaseColor, "portfolio.errored", int64(errored))
	tr.Counter(obs.PhaseColor, "portfolio.winner_index", int64(r.Winner))
	tr.Counter(obs.PhaseColor, "portfolio.win_margin_milli", r.WinMarginMilli)
}

// Default returns the standard candidate set derived from base: the
// two paper heuristics under the default cost/degree metric, the two
// alternative spill metrics under Briggs, the cost-blind smallest-
// last ordering, the SSA-form chordal allocator, iterated register
// coalescing, and the speculative pcolor engine once per seed
// (workers pinned to the machine-independent default so the race is
// reproducible across hosts). base supplies everything else (K,
// coalescing, spill modes, Workers); base.Heuristic, base.Metric and
// the pcolor fields are overridden per candidate.
func Default(base alloc.Options, pcolorSeeds ...uint64) []Candidate {
	base.Observer = nil
	base.UsePColor = false
	mk := func(name string, mut func(*alloc.Options)) Candidate {
		opt := base
		mut(&opt)
		return Candidate{Name: name, Opt: opt}
	}
	cands := []Candidate{
		mk("briggs", func(o *alloc.Options) { o.Heuristic = color.Briggs; o.Metric = color.CostOverDegree }),
		mk("chaitin", func(o *alloc.Options) { o.Heuristic = color.Chaitin; o.Metric = color.CostOverDegree }),
		mk("briggs/cost", func(o *alloc.Options) { o.Heuristic = color.Briggs; o.Metric = color.CostOnly }),
		mk("briggs/degree", func(o *alloc.Options) { o.Heuristic = color.Briggs; o.Metric = color.DegreeOnly }),
		mk("mb", func(o *alloc.Options) { o.Heuristic = color.MatulaBeck; o.Metric = color.CostOverDegree }),
		mk("ssa", func(o *alloc.Options) { o.Heuristic = color.SSA; o.Metric = color.CostOverDegree }),
		mk("irc", func(o *alloc.Options) { o.Heuristic = color.IRC; o.Metric = color.CostOverDegree }),
	}
	for _, seed := range pcolorSeeds {
		cands = append(cands, mk(fmt.Sprintf("pcolor/s%d", seed), func(o *alloc.Options) {
			o.UsePColor = true
			o.PColorSeed = seed
		}))
	}
	// One Jones–Plassmann entrant on the first seed: its spill set
	// depends on the seed alone (worker count only changes wall
	// time), so a single candidate covers the family.
	if len(pcolorSeeds) > 0 {
		seed := pcolorSeeds[0]
		cands = append(cands, mk(fmt.Sprintf("pcolor/jp/s%d", seed), func(o *alloc.Options) {
			o.UsePColor = true
			o.PColorSeed = seed
			o.PColorAlgo = pcolor.JonesPlassmann
		}))
	}
	return cands
}

// DefaultSeeds is the pcolor seed set Default-based portfolios use
// when the caller doesn't pick their own.
var DefaultSeeds = []uint64{1, 7, 42}
