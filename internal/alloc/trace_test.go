package alloc_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"regalloc"
	"regalloc/internal/alloc"
	"regalloc/internal/color"
	"regalloc/internal/fuzzgen"
	"regalloc/internal/ir"
	"regalloc/internal/obs"
	"regalloc/internal/reqtrace"
)

// capture is an Observer that keeps every event.
type capture struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *capture) Emit(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// TestPhaseSpansAreTheObsSpans runs every allocator family traced,
// with a capturing Observer, and holds the three views of its phases
// to one clock reading per boundary: each span-end event's Time is its
// begin event's Time plus Dur; each phase:NAME request span starts at
// its begin event and lasts its Dur; those spans sum exactly to the
// PassStats phase total; and they lie inside the run's alloc:UNIT
// span. The families run HOT at (12,12); irc also runs a generated
// program whose worklist round falls back to the baseline coloring.
func TestPhaseSpansAreTheObsSpans(t *testing.T) {
	hot := compile(t, pressureSrc).Func("HOT")
	fz, err := regalloc.Compile(fuzzgen.Generate(2, fuzzgen.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		h        color.Heuristic
		pcolor   bool
		f        *ir.Func
		k        [2]int
		fallback bool // irc's worklist round falls back
	}{
		{"chaitin", color.Chaitin, false, hot, [2]int{12, 12}, false},
		{"briggs", color.Briggs, false, hot, [2]int{12, 12}, false},
		{"mb", color.MatulaBeck, false, hot, [2]int{12, 12}, false},
		{"ssa", color.SSA, false, hot, [2]int{12, 12}, false},
		{"irc", color.IRC, false, hot, [2]int{12, 12}, false},
		{"pcolor", color.Briggs, true, hot, [2]int{12, 12}, false},
		{"irc-fallback", color.IRC, false, fz.Func("FZ"), [2]int{16, 8}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := alloc.DefaultOptions()
			opt.Heuristic = tc.h
			opt.UsePColor = tc.pcolor
			opt.KInt, opt.KFloat = tc.k[0], tc.k[1]
			var obsv capture
			opt.Observer = &obsv
			rt := reqtrace.NewTrace(reqtrace.Mint())
			res, err := alloc.RunContext(reqtrace.ContextWith(context.Background(), rt, 0), tc.f, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalSpilled() == 0 && tc.h != color.SSA && !tc.fallback {
				t.Fatal("test premise broken: HOT must spill at (12,12), so every phase runs")
			}
			if tc.fallback {
				// The last pass traced must be the worklist round's,
				// which fell back: it built and simplified, and never
				// colored.
				last, colored := 0, false
				for _, e := range obsv.events {
					if e.Kind == obs.KindSpanEnd && e.Pass > last {
						last, colored = e.Pass, false
					}
					if e.Kind == obs.KindSpanEnd && e.Pass == last && e.Phase == obs.PhaseColor {
						colored = true
					}
				}
				if colored {
					t.Fatal("test premise broken: irc's worklist round must fall back on fuzzgen seed 2 at (16,8)")
				}
			}

			// Pair each end with its begin; keep the allocator phases
			// (coalesce runs inside build) in the order they ended.
			type phase struct {
				name  string
				begin time.Time
				dur   time.Duration
			}
			var open [obs.NumPhases][]time.Time
			var phases []phase
			for _, e := range obsv.events {
				switch e.Kind {
				case obs.KindSpanBegin:
					open[e.Phase] = append(open[e.Phase], e.Time)
				case obs.KindSpanEnd:
					stack := open[e.Phase]
					if len(stack) == 0 {
						t.Fatalf("pass %d: %s ends without a begin", e.Pass, e.Phase)
					}
					begin := stack[len(stack)-1]
					open[e.Phase] = stack[:len(stack)-1]
					if !e.Time.Equal(begin.Add(e.Dur)) {
						t.Errorf("pass %d %s: end %v != begin %v + dur %v", e.Pass, e.Phase, e.Time, begin, e.Dur)
					}
					if e.Phase != obs.PhaseCoalesce {
						phases = append(phases, phase{"phase:" + e.Phase.String(), begin, e.Dur})
					}
				}
			}

			spans, _ := rt.Snapshot()
			var run *reqtrace.Span
			var got []reqtrace.Span
			for i, sp := range spans {
				switch {
				case sp.Name == "alloc:"+tc.f.Name:
					if run != nil {
						t.Fatalf("two alloc:%s spans", tc.f.Name)
					}
					run = &spans[i]
				case len(sp.Name) > 6 && sp.Name[:6] == "phase:":
					got = append(got, sp)
				}
			}
			if run == nil {
				t.Fatalf("no alloc:%s span", tc.f.Name)
			}
			if len(got) != len(phases) {
				t.Fatalf("%d phase spans, %d phase end events", len(got), len(phases))
			}
			var sum int64
			for i, sp := range got {
				want := phases[i]
				if sp.Name != want.name || sp.StartNS != want.begin.Sub(rt.Start()).Nanoseconds() || sp.DurNS != want.dur.Nanoseconds() {
					t.Errorf("span %d = %s at %dns for %dns, want %s at %dns for %dns", i, sp.Name, sp.StartNS, sp.DurNS,
						want.name, want.begin.Sub(rt.Start()).Nanoseconds(), want.dur.Nanoseconds())
				}
				if sp.Parent != run.ID || sp.StartNS < run.StartNS || sp.StartNS+sp.DurNS > run.StartNS+run.DurNS {
					t.Errorf("span %d (%s, parent %d) at [%d, %d]ns is not inside %s (id %d) at [%d, %d]ns",
						i, sp.Name, sp.Parent, sp.StartNS, sp.StartNS+sp.DurNS, run.Name, run.ID, run.StartNS, run.StartNS+run.DurNS)
				}
				sum += sp.DurNS
			}
			if want := res.TotalTime().Nanoseconds(); sum != want {
				t.Errorf("phase spans sum to %dns, PassStats to %dns", sum, want)
			}
		})
	}
}
