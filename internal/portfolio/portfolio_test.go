package portfolio_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"regalloc/internal/alloc"
	"regalloc/internal/ir"
	"regalloc/internal/irgen"
	"regalloc/internal/obs"
	"regalloc/internal/parser"
	"regalloc/internal/portfolio"
	"regalloc/internal/sem"
)

// pressureSrc keeps twelve floats live across a loop: under a small
// float budget every heuristic spills, and different strategies spill
// differently — which is what gives the race something to decide.
const pressureSrc = `
      SUBROUTINE HOT(A,B,N)
      REAL A(*),B(*)
      REAL T1,T2,T3,T4,T5,T6,T7,T8,T9,TA,TB,TC
      INTEGER I,N
      T1 = A(1)
      T2 = A(2)
      T3 = A(3)
      T4 = A(4)
      T5 = A(5)
      T6 = A(6)
      T7 = A(7)
      T8 = A(8)
      T9 = A(9)
      TA = A(10)
      TB = A(11)
      TC = A(12)
      DO I = 1,N
         B(I) = T1 + T2*T3 + T4*T5 + T6*T7 + T8*T9 + TA*TB + TC
      ENDDO
      B(1) = T1 + T2 + T3 + T4 + T5 + T6 + T7 + T8 + T9 + TA + TB + TC
      RETURN
      END
`

func compileUnit(t *testing.T, src, name string) *ir.Func {
	t.Helper()
	astProg, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(astProg)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	prog, err := irgen.Gen(astProg, info, irgen.DefaultStaticStart)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	f := prog.Func(name)
	if f == nil {
		t.Fatalf("no unit %s", name)
	}
	return f
}

// tightOptions squeezes the float budget to 12: every strategy still
// finishes (smaller budgets make the cost-blind ones hit the
// spill-temporary hard error), but they finish with different spill
// bills — briggs spills 2 here, mb 6, pcolor 13 — so selection has
// real work to do.
func tightOptions() alloc.Options {
	opt := alloc.DefaultOptions()
	opt.KFloat = 12
	return opt
}

// recordSink collects events and refuses any Emit after the race has
// returned — the no-leak contract of Race.
type recordSink struct {
	mu     sync.Mutex
	closed bool
	events []obs.Event
	late   int
}

func (r *recordSink) Emit(e obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		r.late++
		return
	}
	r.events = append(r.events, e)
}

func (r *recordSink) close() (events []obs.Event, late int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	return r.events, r.late
}

func TestRaceWinnerNotWorseThanAnyCandidate(t *testing.T) {
	f := compileUnit(t, pressureSrc, "HOT")
	cands := portfolio.Default(tightOptions(), 1, 7)
	pr, err := portfolio.Race(context.Background(), f, cands, portfolio.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Res == nil || pr.Winner < 0 || pr.Winner >= len(pr.Outcomes) {
		t.Fatalf("bad winner: %+v", pr)
	}
	win := pr.Outcomes[pr.Winner]
	if win.Status != portfolio.Finished || win.Result == nil {
		t.Fatalf("winner not a finisher: %+v", win)
	}
	// With no budget and no cutoff every candidate finishes, and the
	// winner must be at least as cheap as each of them.
	for _, o := range pr.Outcomes {
		if o.Status != portfolio.Finished {
			t.Fatalf("candidate %s: status %v (err %v)", o.Name, o.Status, o.Err)
		}
		if o.SpillCostMilli < win.SpillCostMilli {
			t.Errorf("candidate %s cost %d beats winner %s cost %d",
				o.Name, o.SpillCostMilli, win.Name, win.SpillCostMilli)
		}
	}
	started, finished, cancelled, errored := pr.Counts()
	if started != len(cands) || finished != len(cands) || cancelled != 0 || errored != 0 {
		t.Fatalf("counts: started=%d finished=%d cancelled=%d errored=%d", started, finished, cancelled, errored)
	}
}

func TestRaceDeterministicWinner(t *testing.T) {
	f := compileUnit(t, pressureSrc, "HOT")
	cands := portfolio.Default(tightOptions(), 1, 7, 42)
	var winner string
	var cost int64
	for trial := 0; trial < 4; trial++ {
		pr, err := portfolio.Race(context.Background(), f, cands, portfolio.Config{Workers: 1 + trial%3})
		if err != nil {
			t.Fatal(err)
		}
		name := pr.Outcomes[pr.Winner].Name
		if trial == 0 {
			winner, cost = name, pr.Outcomes[pr.Winner].SpillCostMilli
			continue
		}
		if name != winner || pr.Outcomes[pr.Winner].SpillCostMilli != cost {
			t.Fatalf("trial %d: winner %s/%d, want %s/%d", trial, name, pr.Outcomes[pr.Winner].SpillCostMilli, winner, cost)
		}
	}
}

func TestRaceEventAttribution(t *testing.T) {
	f := compileUnit(t, pressureSrc, "HOT")
	cands := portfolio.Default(tightOptions(), 1)
	sink := &recordSink{}
	pr, err := portfolio.Race(context.Background(), f, cands, portfolio.Config{Observer: sink})
	if err != nil {
		t.Fatal(err)
	}
	events, late := sink.close()
	if late != 0 {
		t.Fatalf("%d events emitted after Race returned", late)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	// Every candidate stream is contiguous (flushed in index order),
	// attributed to HOT#name, and the race counters ride on the plain
	// unit name.
	perCand := map[string]int{}
	counters := map[string]int64{}
	livenessRuns := map[string]int64{} // pass 0's analysis.liveness_runs
	edgeInserts := map[string]int{}    // pass 0's ig.edge_inserts events
	lastIdx := -1
	for _, e := range events {
		if e.Unit == "HOT" {
			if e.Kind == obs.KindCounter && strings.HasPrefix(e.Name, "portfolio.") {
				counters[e.Name] = e.Value
			}
			continue
		}
		name, ok := strings.CutPrefix(e.Unit, "HOT#")
		if !ok {
			t.Fatalf("event attributed to %q", e.Unit)
		}
		perCand[name]++
		if e.Kind == obs.KindCounter && e.Pass == 0 {
			switch e.Name {
			case "analysis.liveness_runs":
				livenessRuns[name] += e.Value
			case "ig.edge_inserts":
				edgeInserts[name]++
			}
		}
		idx := -1
		for i, c := range cands {
			if c.Name == name {
				idx = i
			}
		}
		if idx < 0 {
			t.Fatalf("event for unknown candidate %q", name)
		}
		if idx < lastIdx {
			t.Fatalf("candidate %q events not flushed in index order", name)
		}
		lastIdx = idx
	}
	for _, c := range cands {
		if perCand[c.Name] == 0 {
			t.Errorf("candidate %s emitted no events", c.Name)
		}
	}
	// The Figure 4 candidates but irc share one pass 0 Build: exactly
	// one of them solves liveness and builds the graph there, and the
	// others fork its start. irc's conservative baseline builds alone
	// (its coalescer builds a graph too).
	builders := 0
	for _, c := range cands {
		runs, inserts := livenessRuns[c.Name], edgeInserts[c.Name]
		switch c.Name {
		case "ssa":
			continue
		case "irc":
			if runs != 1 || inserts == 0 {
				t.Errorf("irc builds alone, but its pass 0 emitted liveness_runs=%d and %d ig.edge_inserts", runs, inserts)
			}
		default:
			switch {
			case runs == 1 && inserts == 1:
				builders++
			case runs != 0 || inserts != 0:
				t.Errorf("candidate %s: pass 0 emitted liveness_runs=%d and %d ig.edge_inserts, want 1 and 1 or 0 and none",
					c.Name, runs, inserts)
			}
		}
	}
	if builders != 1 {
		t.Errorf("%d candidates built the shared pass 0, want exactly 1", builders)
	}
	if counters["portfolio.candidates"] != int64(len(cands)) {
		t.Errorf("portfolio.candidates = %d, want %d", counters["portfolio.candidates"], len(cands))
	}
	if counters["portfolio.winner_index"] != int64(pr.Winner) {
		t.Errorf("portfolio.winner_index = %d, want %d", counters["portfolio.winner_index"], pr.Winner)
	}
	if counters["portfolio.finished"] != int64(len(cands)) {
		t.Errorf("portfolio.finished = %d, want %d", counters["portfolio.finished"], len(cands))
	}
}

func TestFirstGoodCancelsStragglers(t *testing.T) {
	f := compileUnit(t, pressureSrc, "HOT")
	// A generous budget: every strategy colors without spilling, so
	// the very first finisher triggers the cutoff. Workers=1
	// serializes starts, making the cancellation deterministic.
	opt := alloc.DefaultOptions()
	opt.KFloat = 16
	cands := portfolio.Default(opt, 1, 7, 42)
	pr, err := portfolio.Race(context.Background(), f, cands, portfolio.Config{
		Mode: portfolio.FirstGood, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	win := pr.Outcomes[pr.Winner]
	if win.Spills != 0 {
		t.Fatalf("first-good winner spilled %d", win.Spills)
	}
	_, finished, cancelled, _ := pr.Counts()
	if finished != 1 || cancelled != len(cands)-1 {
		t.Fatalf("finished=%d cancelled=%d, want 1 and %d", finished, cancelled, len(cands)-1)
	}
	if pr.Mode != portfolio.FirstGood {
		t.Fatalf("mode %v", pr.Mode)
	}
}

func TestRaceCancelledContext(t *testing.T) {
	f := compileUnit(t, pressureSrc, "HOT")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := portfolio.Race(ctx, f, portfolio.Default(tightOptions()), portfolio.Config{})
	if !errors.Is(err, portfolio.ErrNoWinner) {
		t.Fatalf("err = %v, want ErrNoWinner", err)
	}
}

func TestRaceValidatesCandidates(t *testing.T) {
	f := compileUnit(t, pressureSrc, "HOT")
	bad := portfolio.Default(tightOptions())
	bad[2].Opt.KInt = 0
	_, err := portfolio.Race(context.Background(), f, bad, portfolio.Config{})
	if !errors.Is(err, alloc.ErrBadK) {
		t.Fatalf("err = %v, want ErrBadK", err)
	}
	if _, err := portfolio.Race(context.Background(), f, nil, portfolio.Config{}); !errors.Is(err, portfolio.ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}

func TestRaceAdmissionHooks(t *testing.T) {
	f := compileUnit(t, pressureSrc, "HOT")
	cands := portfolio.Default(tightOptions(), 1)
	var mu sync.Mutex
	inFlight, peak, acquired, released := 0, 0, 0, 0
	cfg := portfolio.Config{
		Workers: 2,
		Acquire: func(ctx context.Context) error {
			mu.Lock()
			defer mu.Unlock()
			inFlight++
			acquired++
			if inFlight > peak {
				peak = inFlight
			}
			return nil
		},
		Release: func() {
			mu.Lock()
			defer mu.Unlock()
			inFlight--
			released++
		},
	}
	if _, err := portfolio.Race(context.Background(), f, cands, cfg); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if acquired != len(cands) || released != acquired {
		t.Fatalf("acquired=%d released=%d, want %d each", acquired, released, len(cands))
	}
	if inFlight != 0 {
		t.Fatalf("inFlight=%d after race", inFlight)
	}
	if peak > 2 {
		t.Fatalf("peak concurrency %d exceeds Workers=2", peak)
	}
}

func TestRaceAdmissionRefused(t *testing.T) {
	f := compileUnit(t, pressureSrc, "HOT")
	cands := portfolio.Default(tightOptions())
	refused := errors.New("no slots")
	cfg := portfolio.Config{
		Acquire: func(ctx context.Context) error { return refused },
		Release: func() { t.Error("Release called for a refused candidate") },
	}
	_, err := portfolio.Race(context.Background(), f, cands, cfg)
	if !errors.Is(err, portfolio.ErrNoWinner) {
		t.Fatalf("err = %v, want ErrNoWinner", err)
	}
}

// TestRaceNoGoroutineLeak is the dependency-free goleak: run several
// races (including budgeted and cancelled ones), then require the
// goroutine count to settle back to the baseline.
func TestRaceNoGoroutineLeak(t *testing.T) {
	f := compileUnit(t, pressureSrc, "HOT")
	cands := portfolio.Default(tightOptions(), 1, 7, 42)
	base := runtime.NumGoroutine()
	for trial := 0; trial < 3; trial++ {
		if _, err := portfolio.Race(context.Background(), f, cands, portfolio.Config{Observer: &recordSink{}}); err != nil {
			t.Fatal(err)
		}
		// A budget so tight most candidates never start.
		pr, err := portfolio.Race(context.Background(), f, cands, portfolio.Config{Budget: time.Nanosecond})
		if err == nil {
			if _, _, cancelled, _ := pr.Counts(); cancelled == 0 {
				t.Log("nanosecond budget admitted every candidate (slow machine?)")
			}
		} else if !errors.Is(err, portfolio.ErrNoWinner) {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := portfolio.Race(ctx, f, cands, portfolio.Config{}); !errors.Is(err, portfolio.ErrNoWinner) {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines leaked: %d -> %d\n%s", base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]portfolio.Mode{
		"race": portfolio.RaceToBest, "race-to-best": portfolio.RaceToBest, "best": portfolio.RaceToBest,
		"first-good": portfolio.FirstGood, "firstgood": portfolio.FirstGood, "first": portfolio.FirstGood,
	} {
		m, err := portfolio.ParseMode(s)
		if err != nil || m != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, m, err)
		}
	}
	if _, err := portfolio.ParseMode("fastest"); err == nil {
		t.Error("ParseMode accepted garbage")
	}
}
