package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// jsonEvent is the wire form of an Event: flat, lower-case keys,
// optional fields omitted, duration in nanoseconds.
type jsonEvent struct {
	TS     string  `json:"ts"`
	Kind   string  `json:"kind"`
	Unit   string  `json:"unit,omitempty"`
	Pass   int     `json:"pass"`
	Phase  string  `json:"phase,omitempty"`
	DurNS  int64   `json:"dur_ns,omitempty"`
	Name   string  `json:"name,omitempty"`
	Value  int64   `json:"value,omitempty"`
	Node   int32   `json:"node,omitempty"`
	Degree int32   `json:"degree,omitempty"`
	Cost   float64 `json:"cost,omitempty"`
	Metric float64 `json:"metric,omitempty"`
	Color  int16   `json:"color,omitempty"`
	InUse  int     `json:"in_use_colors,omitempty"`
}

// JSONSink writes one JSON object per event per line — the trace
// format behind cmd/regalloc -trace and cmd/bench -trace. It is safe
// for concurrent use.
type JSONSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONSink returns a JSONSink writing to w.
func NewJSONSink(w io.Writer) *JSONSink {
	return &JSONSink{enc: json.NewEncoder(w)}
}

// Emit writes e as one JSON line.
func (s *JSONSink) Emit(e Event) {
	je := jsonEvent{
		TS:   e.Time.Format(time.RFC3339Nano),
		Kind: e.Kind.String(),
		Unit: e.Unit,
		Pass: e.Pass,
	}
	switch e.Kind {
	case KindSpanBegin:
		je.Phase = e.Phase.String()
	case KindSpanEnd:
		je.Phase = e.Phase.String()
		je.DurNS = e.Dur.Nanoseconds()
	case KindCounter:
		je.Phase = e.Phase.String()
		je.Name = e.Name
		je.Value = e.Value
	case KindSpillDecision:
		je.Phase = e.Phase.String()
		je.Node = e.Node
		je.Degree = e.Degree
		je.Cost = e.Cost
		je.Metric = e.Metric
	case KindColorReuse:
		je.Phase = e.Phase.String()
		je.Node = e.Node
		je.Degree = e.Degree
		je.Color = e.Color
		je.InUse = e.InUseColors
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Tracing stays best-effort per event (the allocator never stops
	// for a sick trace file), but the first failure is remembered so
	// the CLI can exit nonzero instead of shipping a silently
	// truncated trace.
	if err := s.enc.Encode(je); err != nil && s.err == nil {
		s.err = err
	}
}

// Err returns the first write error Emit encountered, if any. A
// trace consumer should check it after the run: ENOSPC and friends
// often surface mid-stream, not at file close.
func (s *JSONSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// TextSink writes one human-readable line per event. It is safe for
// concurrent use.
type TextSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewTextSink returns a TextSink writing to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

// Emit writes e as a log line.
func (s *TextSink) Emit(e Event) {
	var detail string
	switch e.Kind {
	case KindSpanBegin:
		detail = fmt.Sprintf("phase=%s", e.Phase)
	case KindSpanEnd:
		detail = fmt.Sprintf("phase=%s dur=%s", e.Phase, e.Dur)
	case KindCounter:
		detail = fmt.Sprintf("phase=%s %s=%d", e.Phase, e.Name, e.Value)
	case KindSpillDecision:
		detail = fmt.Sprintf("node=%d degree=%d cost=%g metric=%g", e.Node, e.Degree, e.Cost, e.Metric)
	case KindColorReuse:
		detail = fmt.Sprintf("node=%d degree=%d in_use=%d color=%d", e.Node, e.Degree, e.InUseColors, e.Color)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, "[%s pass=%d] %s %s\n", e.Unit, e.Pass, e.Kind, detail)
}

// MetricsSink aggregates the event stream in process: counter totals
// keyed "phase/name", per-phase duration histograms on the shared
// LatencyBuckets ladder, spill-decision totals, and color-reuse
// totals. It is safe for concurrent use.
type MetricsSink struct {
	mu        sync.Mutex
	counters  map[string]int64
	durations [NumPhases]LatencyHistogram
	spills    int64
	spillCost float64
	reuses    int64
}

// NewMetricsSink returns an empty MetricsSink.
func NewMetricsSink() *MetricsSink {
	return &MetricsSink{counters: make(map[string]int64)}
}

// Emit folds e into the aggregates.
func (s *MetricsSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case KindSpanEnd:
		if int(e.Phase) < NumPhases {
			s.durations[e.Phase].Observe(e.Dur)
		}
	case KindCounter:
		s.counters[e.Phase.String()+"/"+e.Name] += e.Value
	case KindSpillDecision:
		s.spills++
		s.spillCost += e.Cost
	case KindColorReuse:
		s.reuses++
	}
}

// Metrics is a point-in-time copy of a MetricsSink's aggregates.
type Metrics struct {
	Counters       map[string]int64            // "phase/name" -> summed value
	Durations      map[string]LatencyHistogram // phase name -> histogram
	SpillDecisions int64                       // simplify stuck-choices observed
	SpillCost      float64                     // summed cost of those choices
	ColorReuses    int64                       // optimistic wins observed
}

// Snapshot returns a consistent copy of the current aggregates.
func (s *MetricsSink) Snapshot() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		Counters:       make(map[string]int64, len(s.counters)),
		Durations:      make(map[string]LatencyHistogram, NumPhases),
		SpillDecisions: s.spills,
		SpillCost:      s.spillCost,
		ColorReuses:    s.reuses,
	}
	for k, v := range s.counters {
		m.Counters[k] = v
	}
	for p := 0; p < NumPhases; p++ {
		if s.durations[p].Count > 0 {
			m.Durations[Phase(p).String()] = s.durations[p]
		}
	}
	return m
}

// String renders the aggregates as a summary table.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "phase durations:\n")
	for p := 0; p < NumPhases; p++ {
		name := Phase(p).String()
		h, ok := m.Durations[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-9s spans %5d  total %12s  mean %10s  max %10s\n",
			name, h.Count, time.Duration(h.SumNS), h.Mean(), time.Duration(h.MaxNS))
	}
	keys := make([]string, 0, len(m.Counters))
	for k := range m.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 0 {
		fmt.Fprintf(&b, "counters:\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-28s %12d\n", k, m.Counters[k])
		}
	}
	fmt.Fprintf(&b, "spill decisions: %d (summed cost %.0f)\n", m.SpillDecisions, m.SpillCost)
	fmt.Fprintf(&b, "optimistic color reuses: %d\n", m.ColorReuses)
	return b.String()
}
