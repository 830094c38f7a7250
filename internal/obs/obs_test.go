package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"regalloc/internal/obs"
)

// TestNilTracerIsSafe: every Tracer method must be a no-op on the
// nil tracer — that is the zero-overhead-when-unobserved contract.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *obs.Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.SetPass(3)
	start := tr.Begin(obs.PhaseBuild)
	if start.IsZero() || tr.End(obs.PhaseBuild, start) < 0 {
		t.Fatal("nil tracer must still measure the phase")
	}
	tr.Counter(obs.PhaseBuild, "graph.nodes", 7)
	tr.SpillDecision(1, 9, 40, 4.4)
	tr.ColorReuse(1, 9, 3, 2)
	if obs.New(nil, "unit") != nil {
		t.Fatal("New(nil, ...) must return the nil tracer")
	}
	if n := testing.AllocsPerRun(100, func() { tr.End(obs.PhaseBuild, tr.Begin(obs.PhaseBuild)) }); n != 0 {
		t.Fatalf("nil tracer Begin/End allocate %v times", n)
	}
}

// clock is an injected tracer clock that moves only when told to, so
// tests control every phase duration.
type clock struct{ t time.Time }

func (c *clock) now() time.Time { return c.t }

// span runs one phase p of length d on tr, whose clock is c.
func (c *clock) span(tr *obs.Tracer, p obs.Phase, d time.Duration) {
	start := tr.Begin(p)
	c.t = c.t.Add(d)
	tr.End(p, start)
}

func newClock() *clock { return &clock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)} }

// TestTracerStampsContext: events carry the unit name and the pass
// set via SetPass.
func TestTracerStampsContext(t *testing.T) {
	var got []obs.Event
	sink := sinkFunc(func(e obs.Event) { got = append(got, e) })
	c := newClock()
	tr := obs.NewWithClock(sink, "SVD", c.now)
	start := tr.Begin(obs.PhaseSimplify)
	tr.SetPass(2)
	c.t = c.t.Add(5 * time.Millisecond)
	if d := tr.End(obs.PhaseSimplify, start); d != 5*time.Millisecond {
		t.Fatalf("End returned %v, want 5ms", d)
	}
	if len(got) != 2 {
		t.Fatalf("got %d events", len(got))
	}
	if got[0].Unit != "SVD" || got[0].Pass != 0 || got[0].Kind != obs.KindSpanBegin {
		t.Fatalf("event 0: %+v", got[0])
	}
	if got[1].Pass != 2 || got[1].Dur != 5*time.Millisecond || got[1].Phase != obs.PhaseSimplify {
		t.Fatalf("event 1: %+v", got[1])
	}
	if !got[0].Time.Equal(start) || !got[1].Time.Equal(got[0].Time.Add(got[1].Dur)) {
		t.Fatalf("span times: begin %v (Begin returned %v), end %v, dur %v", got[0].Time, start, got[1].Time, got[1].Dur)
	}
}

type sinkFunc func(obs.Event)

func (f sinkFunc) Emit(e obs.Event) { f(e) }

// TestJSONSink: one valid JSON object per line, with the
// kind-appropriate fields present.
func TestJSONSink(t *testing.T) {
	var buf bytes.Buffer
	c := newClock()
	tr := obs.NewWithClock(obs.NewJSONSink(&buf), "QSORT", c.now)
	tr.SetPass(1)
	c.span(tr, obs.PhaseSimplify, 1500*time.Nanosecond)
	tr.Counter(obs.PhaseBuild, "graph.edges", 42)
	tr.SpillDecision(7, 12, 80, 6.67)
	tr.ColorReuse(9, 20, 4, 5)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	var evs []map[string]any
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("invalid JSON line %q: %v", ln, err)
		}
		if m["unit"] != "QSORT" || m["pass"] != float64(1) {
			t.Fatalf("context not stamped: %v", m)
		}
		evs = append(evs, m)
	}
	if evs[0]["kind"] != "span_begin" || evs[0]["phase"] != "simplify" {
		t.Fatalf("span_begin: %v", evs[0])
	}
	if evs[1]["kind"] != "span_end" || evs[1]["dur_ns"] != float64(1500) {
		t.Fatalf("span_end: %v", evs[1])
	}
	if evs[2]["name"] != "graph.edges" || evs[2]["value"] != float64(42) {
		t.Fatalf("counter: %v", evs[2])
	}
	if evs[3]["kind"] != "spill_decision" || evs[3]["node"] != float64(7) ||
		evs[3]["cost"] != float64(80) || evs[3]["metric"] != float64(6.67) {
		t.Fatalf("spill_decision: %v", evs[3])
	}
	if evs[4]["kind"] != "color_reuse" || evs[4]["in_use_colors"] != float64(4) ||
		evs[4]["color"] != float64(5) {
		t.Fatalf("color_reuse: %v", evs[4])
	}
}

// TestTextSink: lines mention the kind and the key quantities.
func TestTextSink(t *testing.T) {
	var buf bytes.Buffer
	c := newClock()
	tr := obs.NewWithClock(obs.NewTextSink(&buf), "FIB", c.now)
	c.span(tr, obs.PhaseColor, time.Millisecond)
	tr.SpillDecision(3, 8, 20, 2.5)
	out := buf.String()
	for _, want := range []string{"[FIB pass=0]", "span_end", "phase=color", "spill_decision", "node=3", "metric=2.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsSink: counters sum, histograms bucket, spill/reuse
// totals accumulate, and Snapshot is an isolated copy.
func TestMetricsSink(t *testing.T) {
	ms := obs.NewMetricsSink()
	c := newClock()
	tr := obs.NewWithClock(ms, "U", c.now)
	c.span(tr, obs.PhaseBuild, 5*time.Microsecond)
	c.span(tr, obs.PhaseBuild, 50*time.Microsecond)
	tr.Counter(obs.PhaseBuild, "graph.nodes", 100)
	tr.Counter(obs.PhaseBuild, "graph.nodes", 20)
	tr.SpillDecision(1, 9, 30, 3.3)
	tr.SpillDecision(2, 9, 10, 1.1)
	tr.ColorReuse(1, 9, 2, 0)

	snap := ms.Snapshot()
	if snap.Counters["build/graph.nodes"] != 120 {
		t.Fatalf("counter sum: %v", snap.Counters)
	}
	h := snap.Durations["build"]
	if h.Count != 2 || h.SumNS != 55_000 || h.MaxNS != 50_000 {
		t.Fatalf("histogram: %+v", h)
	}
	if h.Buckets[2] != 1 || h.Buckets[5] != 1 { // the <=5µs and <=50µs steps of the 1-2-5 ladder
		t.Fatalf("histogram buckets: %v", h.Buckets)
	}
	if snap.SpillDecisions != 2 || snap.SpillCost != 40 || snap.ColorReuses != 1 {
		t.Fatalf("totals: %+v", snap)
	}

	// The snapshot must not alias live state.
	tr.Counter(obs.PhaseBuild, "graph.nodes", 1)
	if snap.Counters["build/graph.nodes"] != 120 {
		t.Fatal("snapshot aliases the sink")
	}

	out := snap.String()
	for _, want := range []string{"build", "graph.nodes", "spill decisions: 2", "color reuses: 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestMulti: fan-out hits every sink; nils are dropped; all-nil
// collapses to nil so the fast path is preserved.
func TestMulti(t *testing.T) {
	var a, b int
	sa := sinkFunc(func(obs.Event) { a++ })
	sb := sinkFunc(func(obs.Event) { b++ })
	m := obs.Multi(sa, nil, sb)
	m.Emit(obs.Event{})
	if a != 1 || b != 1 {
		t.Fatalf("fan-out: a=%d b=%d", a, b)
	}
	if obs.Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) should be nil")
	}
	if s := obs.Multi(sa); s == nil {
		t.Fatal("Multi(one) should pass through")
	}
	// A typed nil (e.g. an unset optional *MetricsSink variable) is
	// non-nil as an interface; Multi must still drop it rather than
	// hand Emit a nil receiver.
	var typedNil *obs.MetricsSink
	if obs.Multi(typedNil) != nil {
		t.Fatal("Multi(typed nil) should be nil")
	}
	m = obs.Multi(sa, typedNil)
	m.Emit(obs.Event{})
	if a != 2 {
		t.Fatalf("typed nil dropped but live sink kept: a=%d", a)
	}
}

// TestSinksConcurrent exercises the provided sinks from many
// goroutines; run under -race this is the concurrency-safety check
// for the Assemble worker pool's shared Observer.
func TestSinksConcurrent(t *testing.T) {
	var buf bytes.Buffer
	ms := obs.NewMetricsSink()
	sink := obs.Multi(obs.NewJSONSink(&buf), obs.NewTextSink(new(bytes.Buffer)), ms)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := obs.New(sink, "unit")
			for i := 0; i < 200; i++ {
				tr.SetPass(i)
				tr.End(obs.PhaseBuild, tr.Begin(obs.PhaseBuild))
				tr.Counter(obs.PhaseBuild, "n", 1)
				tr.SpillDecision(int32(i), 4, 1, 0.25)
			}
		}(g)
	}
	wg.Wait()
	snap := ms.Snapshot()
	if snap.Counters["build/n"] != 1600 || snap.SpillDecisions != 1600 {
		t.Fatalf("lost events: %+v", snap)
	}
	// Interleaved writers must still produce one valid JSON doc per line.
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("corrupt line %q: %v", ln, err)
		}
	}
}
