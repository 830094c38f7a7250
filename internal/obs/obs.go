// Package obs is the allocator's observability layer: a structured
// event stream (phase spans, counters, spill decisions, color-reuse
// witnesses) emitted live as the Figure 4 cycle runs, instead of
// only in the post-hoc PassStats record.
//
// The design is pull-nothing, push-everything: the allocator pushes
// Events into a Sink the caller supplies; a nil Sink (the default)
// costs a single nil check per instrumentation site. Three sinks are
// provided: JSONSink (one JSON object per line, machine-readable
// traces), TextSink (human-readable log lines), and MetricsSink
// (in-process aggregation into counters and duration histograms).
//
// Event kinds map directly onto the paper's evaluation:
//
//   - phase spans reproduce Figure 7 (per-phase CPU time around
//     Build → Coalesce → Simplify → Color → Spill);
//   - spill-decision events carry the cost and the chosen metric
//     value behind Figures 5–6's spill counts and costs;
//   - color-reuse events witness §2.2's central claim: a node
//     removed as a spill candidate (degree >= k) still receives a
//     color because its neighbors reuse few distinct colors.
package obs

import (
	"fmt"
	"reflect"
	"time"
)

// Phase identifies one box of the paper's Figure 4 allocation cycle.
// Coalesce is nested inside Build (the figure's "build" box contains
// the coalescing inner loop), so its span begins after Build's and
// ends before it.
type Phase uint8

// The allocator phases, in cycle order.
const (
	PhaseBuild Phase = iota
	PhaseCoalesce
	PhaseSimplify
	PhaseColor
	PhaseSpill
	numPhases
)

var phaseNames = [...]string{"build", "coalesce", "simplify", "color", "spill"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// NumPhases is the number of distinct phases.
const NumPhases = int(numPhases)

// Kind discriminates Event payloads.
type Kind uint8

// Event kinds.
const (
	// KindSpanBegin marks a phase starting; Phase is set.
	KindSpanBegin Kind = iota
	// KindSpanEnd marks a phase finishing; Phase and Dur are set.
	// Tracer.End takes one clock reading for both: Time is the
	// matching begin event's Time plus Dur, and Dur is the value the
	// allocator stores in the pass's PassStats field, so traces,
	// request spans and the summary record reconcile exactly.
	KindSpanEnd
	// KindCounter is a named measurement scoped to a phase; Name and
	// Value are set (e.g. "graph.edges" after build).
	KindCounter
	// KindSpillDecision records simplify getting stuck and choosing
	// a spill candidate: Node, Degree, Cost, and Metric (the chosen
	// figure-of-merit value, cost/degree under the default) are set.
	KindSpillDecision
	// KindColorReuse records the select phase coloring a node that
	// simplify had removed as a spill candidate — the optimistic
	// win over Chaitin. Node, Degree, InUseColors (distinct colors
	// among already-colored neighbors), and Color are set.
	KindColorReuse
)

var kindNames = [...]string{"span_begin", "span_end", "counter", "spill_decision", "color_reuse"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one observation. A single flat struct (rather than one
// type per kind) keeps emission allocation-free; only the fields
// documented on the Kind constants are meaningful for each kind.
type Event struct {
	Time  time.Time     // stamped at emission
	Kind  Kind          //
	Unit  string        // function being allocated ("" for standalone graphs)
	Pass  int           // 0-based trip around the Figure 4 cycle
	Phase Phase         // span and counter events
	Dur   time.Duration // KindSpanEnd
	Name  string        // KindCounter
	Value int64         // KindCounter

	Node        int32   // live-range / graph-node number
	Degree      int32   // node degree at decision time
	Cost        float64 // estimated spill cost (KindSpillDecision)
	Metric      float64 // chosen spill-metric value (KindSpillDecision)
	Color       int16   // assigned color (KindColorReuse)
	InUseColors int     // distinct neighbor colors (KindColorReuse)
}

// Sink receives events. Implementations used with whole-program
// allocation (regalloc.Assemble and AssembleContext allocate units
// on a worker pool) must be safe for concurrent use; all sinks in
// this package are.
type Sink interface {
	Emit(e Event)
}

// Tracer binds a Sink to one allocation's context (the unit name and
// current pass) and offers typed, nil-safe emit helpers: every method
// on a nil *Tracer is a no-op, so instrumentation sites cost one
// branch when observability is off.
type Tracer struct {
	sink Sink
	unit string
	pass int
	now  func() time.Time
}

// New returns a Tracer feeding sink, or nil when sink is nil (the
// zero-overhead path).
func New(sink Sink, unit string) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink, unit: unit, now: time.Now}
}

// NewWithClock is New with an injected clock, for tests (and replay
// tooling) that need deterministic event timestamps. A nil now means
// time.Now.
func NewWithClock(sink Sink, unit string, now func() time.Time) *Tracer {
	if sink == nil {
		return nil
	}
	if now == nil {
		now = time.Now
	}
	return &Tracer{sink: sink, unit: unit, now: now}
}

// Enabled reports whether events are being collected.
func (t *Tracer) Enabled() bool { return t != nil }

// SetPass sets the pass number stamped on subsequent events.
func (t *Tracer) SetPass(pass int) {
	if t == nil {
		return
	}
	t.pass = pass
}

func (t *Tracer) emit(e Event) {
	e.Time = t.now()
	e.Unit = t.unit
	e.Pass = t.pass
	t.sink.Emit(e)
}

// Begin emits a span-begin for p and returns its time: the one clock
// reading that stamps the event and that the caller hands to End. On
// a nil Tracer it only reads the clock.
func (t *Tracer) Begin(p Phase) time.Time {
	if t == nil {
		return time.Now()
	}
	now := t.now()
	t.sink.Emit(Event{Time: now, Kind: KindSpanBegin, Unit: t.unit, Pass: t.pass, Phase: p})
	return now
}

// End emits a span-end for p, begun at start, and returns the
// phase's duration. One clock reading stamps the event and fixes the
// duration, so the event's Time is exactly start plus Dur. On a nil
// Tracer it only measures.
func (t *Tracer) End(p Phase, start time.Time) time.Duration {
	if t == nil {
		return time.Since(start)
	}
	now := t.now()
	d := now.Sub(start)
	t.sink.Emit(Event{Time: now, Kind: KindSpanEnd, Unit: t.unit, Pass: t.pass, Phase: p, Dur: d})
	return d
}

// Counter emits a named value scoped to phase p.
func (t *Tracer) Counter(p Phase, name string, v int64) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindCounter, Phase: p, Name: name, Value: v})
}

// SpillDecision records simplify choosing node as a spill candidate.
func (t *Tracer) SpillDecision(node, degree int32, cost, metric float64) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindSpillDecision, Phase: PhaseSimplify, Node: node, Degree: degree, Cost: cost, Metric: metric})
}

// ColorReuse records select coloring a spill candidate anyway.
func (t *Tracer) ColorReuse(node, degree int32, inUse int, color int16) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindColorReuse, Phase: PhaseColor, Node: node, Degree: degree, InUseColors: inUse, Color: color})
}

// multiSink fans events out to several sinks in order.
type multiSink []Sink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Multi combines sinks into one; nil entries are dropped — including
// typed nils like a nil *MetricsSink, the easy mistake when an
// optional sink variable keeps its concrete type — and the result is
// nil when nothing remains (preserving the fast path).
func Multi(sinks ...Sink) Sink {
	var out multiSink
	for _, s := range sinks {
		if s == nil {
			continue
		}
		if v := reflect.ValueOf(s); v.Kind() == reflect.Pointer && v.IsNil() {
			continue
		}
		out = append(out, s)
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
