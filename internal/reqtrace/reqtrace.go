// Package reqtrace is the request-scoped tracing layer: W3C
// traceparent identities, an in-memory span tree per request, and a
// tail-sampling flight recorder (recorder.go) that keeps the span
// trees worth debugging — the slowest requests and every errored one.
//
// The design mirrors package obs's nil-safety contract: every method
// on a nil *Trace is a no-op, so instrumentation sites in the
// allocator, the result cache, and the portfolio engine cost one
// ctx.Value lookup plus one nil check when tracing is off. Span IDs
// are small sequential integers local to one Trace (the W3C span ID
// identifies the request as a whole on the wire); the span tree is
// rebuilt from Parent links by consumers.
//
// Timing convention: spans carry start offsets relative to the trace
// start and durations, both in nanoseconds. Allocator phase spans
// come from the obs span events as each phase ends (PhaseSpans): a
// span starts at its phase's begin event and lasts the event's Dur,
// the same reading the allocator stores in PassStats. They therefore
// reconcile exactly with the registry and /metrics — the same integer
// nanoseconds appear in all three places — and their start times are
// the phases' real ones.
package reqtrace

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
	"time"

	"regalloc/internal/obs"
)

// TraceID is the 16-byte W3C trace identity.
type TraceID [16]byte

// String renders the 32-hex-digit wire form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports the invalid all-zero ID (forbidden by the spec).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanID is the 8-byte W3C parent/span identity.
type SpanID [8]byte

// String renders the 16-hex-digit wire form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// SpanContext is one parsed or minted traceparent: the trace
// identity, this hop's span identity, and the sampled flag.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether both identities are non-zero, the spec's
// minimum for a usable traceparent.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Header renders the version-00 traceparent wire form:
// 00-<trace-id>-<span-id>-<flags>.
func (sc SpanContext) Header() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-" + flags
}

// Child keeps the trace identity and mints a fresh span identity —
// the move a server makes on an incoming traceparent so its own spans
// are distinguishable from the caller's.
func (sc SpanContext) Child() SpanContext {
	next := sc
	next.SpanID = mintSpanID()
	return next
}

// Parse decodes a version-00 (or forward-compatible higher-version)
// traceparent header. The empty string is not an error to callers
// that treat "no header" separately; it fails Valid instead.
func Parse(h string) (SpanContext, error) {
	var sc SpanContext
	if len(h) < 55 {
		return sc, fmt.Errorf("reqtrace: traceparent too short (%d bytes)", len(h))
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return sc, fmt.Errorf("reqtrace: malformed traceparent %q", h)
	}
	ver, err := hex.DecodeString(h[0:2])
	if err != nil {
		return sc, fmt.Errorf("reqtrace: bad version in %q", h)
	}
	if ver[0] == 0xff {
		return sc, fmt.Errorf("reqtrace: forbidden version ff")
	}
	if ver[0] == 0 && len(h) != 55 {
		return sc, fmt.Errorf("reqtrace: version 00 traceparent must be 55 bytes, got %d", len(h))
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(h[3:35])); err != nil {
		return sc, fmt.Errorf("reqtrace: bad trace-id in %q", h)
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(h[36:52])); err != nil {
		return sc, fmt.Errorf("reqtrace: bad parent-id in %q", h)
	}
	flags, err := hex.DecodeString(h[53:55])
	if err != nil {
		return sc, fmt.Errorf("reqtrace: bad flags in %q", h)
	}
	sc.Sampled = flags[0]&0x01 != 0
	if !sc.Valid() {
		return sc, fmt.Errorf("reqtrace: all-zero trace-id or parent-id in %q", h)
	}
	return sc, nil
}

// Mint returns a fresh sampled SpanContext with random identities.
func Mint() SpanContext {
	var sc SpanContext
	fill(sc.TraceID[:])
	sc.SpanID = mintSpanID()
	sc.Sampled = true
	return sc
}

func mintSpanID() SpanID {
	var id SpanID
	fill(id[:])
	return id
}

// fill draws random bytes, retrying the (never observed in practice)
// all-zero draw the spec forbids.
func fill(b []byte) {
	for {
		if _, err := rand.Read(b); err != nil {
			panic("reqtrace: crypto/rand failed: " + err.Error())
		}
		for _, c := range b {
			if c != 0 {
				return
			}
		}
	}
}

// Attr is one key/value annotation on a span or a trace.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one operation in a request's tree. IDs are sequential
// uint32s local to the owning Trace; Parent 0 marks a root.
type Span struct {
	ID      uint32 `json:"id"`
	Parent  uint32 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // offset from the trace start
	DurNS   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Trace collects the span tree of one request. Safe for concurrent
// use (portfolio candidates record from racing goroutines). The nil
// *Trace is a valid no-op tracer: every method returns zero values
// and records nothing.
type Trace struct {
	sc    SpanContext
	start time.Time

	mu     sync.Mutex
	nextID uint32
	spans  []Span
	annots []Attr
}

// NewTrace starts an empty trace under sc, clocked from now.
func NewTrace(sc SpanContext) *Trace {
	return &Trace{sc: sc, start: time.Now()}
}

// SpanContext returns the trace's wire identity (zero for nil).
func (t *Trace) SpanContext() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	return t.sc
}

// Start returns the trace's start time (zero for nil).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// StartSpan opens a span under parent (0 for a root) and returns its
// ID plus the closer that stamps the duration; extra attributes can
// be attached at close. On a nil Trace the ID is 0 and the closer a
// no-op.
func (t *Trace) StartSpan(parent uint32, name string, attrs ...Attr) (uint32, func(attrs ...Attr)) {
	if t == nil {
		return 0, func(...Attr) {}
	}
	start := time.Now()
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(t.start).Nanoseconds(),
		Attrs:   attrs,
	})
	t.mu.Unlock()
	return id, func(extra ...Attr) {
		d := time.Since(start)
		t.mu.Lock()
		for i := range t.spans {
			if t.spans[i].ID == id {
				t.spans[i].DurNS = d.Nanoseconds()
				t.spans[i].Attrs = append(t.spans[i].Attrs, extra...)
				break
			}
		}
		t.mu.Unlock()
	}
}

// Record adds a completed span measured externally: start is its
// wall-clock start, d its exact duration (for allocator phases, the
// same integer nanoseconds PassStats carries, so the span tree
// reconciles with the registry). Returns the span's ID (0 on nil).
func (t *Trace) Record(parent uint32, name string, start time.Time, d time.Duration, attrs ...Attr) uint32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(t.start).Nanoseconds(),
		DurNS:   d.Nanoseconds(),
		Attrs:   attrs,
	})
	t.mu.Unlock()
	return id
}

// PhaseSpans returns an obs.Sink that records each build, simplify,
// color and spill span-end it receives as a "phase:NAME" child of
// parent, with a "pass" attribute. The span starts at the phase's
// begin event (the end event's Time less its Dur) and lasts exactly
// Dur. Coalesce spans are skipped: coalescing runs inside the build
// span. A nil Trace returns a nil Sink, which obs.Multi drops.
func (t *Trace) PhaseSpans(parent uint32) obs.Sink {
	if t == nil {
		return nil
	}
	return phaseSpans{t: t, parent: parent}
}

type phaseSpans struct {
	t      *Trace
	parent uint32
}

var phaseSpanNames = [obs.NumPhases]string{
	obs.PhaseBuild:    "phase:build",
	obs.PhaseSimplify: "phase:simplify",
	obs.PhaseColor:    "phase:color",
	obs.PhaseSpill:    "phase:spill",
}

func (s phaseSpans) Emit(e obs.Event) {
	if e.Kind != obs.KindSpanEnd || int(e.Phase) >= obs.NumPhases || phaseSpanNames[e.Phase] == "" {
		return
	}
	s.t.Record(s.parent, phaseSpanNames[e.Phase], e.Time.Add(-e.Dur), e.Dur,
		Attr{Key: "pass", Value: strconv.Itoa(e.Pass)})
}

// AddAttr appends an attribute to an already-recorded span (the
// portfolio engine marks the winner this way after the join).
func (t *Trace) AddAttr(spanID uint32, key, value string) {
	if t == nil || spanID == 0 {
		return
	}
	t.mu.Lock()
	for i := range t.spans {
		if t.spans[i].ID == spanID {
			t.spans[i].Attrs = append(t.spans[i].Attrs, Attr{Key: key, Value: value})
			break
		}
	}
	t.mu.Unlock()
}

// Annotate attaches a request-level key/value (unit, heuristic,
// cache outcome, spill cost) read back by the access log and the
// flight recorder. Later writes of the same key win.
func (t *Trace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := range t.annots {
		if t.annots[i].Key == key {
			t.annots[i].Value = value
			t.mu.Unlock()
			return
		}
	}
	t.annots = append(t.annots, Attr{Key: key, Value: value})
	t.mu.Unlock()
}

// Annotation returns the value for key ("" when absent or nil).
func (t *Trace) Annotation(key string) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range t.annots {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Snapshot copies out the spans and annotations recorded so far.
func (t *Trace) Snapshot() (spans []Span, annots []Attr) {
	if t == nil {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans = make([]Span, len(t.spans))
	for i, s := range t.spans {
		s.Attrs = append([]Attr(nil), s.Attrs...)
		spans[i] = s
	}
	annots = append([]Attr(nil), t.annots...)
	return spans, annots
}
