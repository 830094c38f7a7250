package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around a public entry point of that layer. Spans stay in memory and
// are written once, at exit.
type span struct {
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Parent int // index into recorder.spans; -1 for a root
	Trace  int // one trace per timed operation
	Args   map[string]any
}

// recorder collects the spans of a traced pass. A nil *recorder is
// the untraced path: every method is a no-op, so the traced and
// untraced passes run the same code.
type recorder struct {
	epoch time.Time
	trace int
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// nextTrace starts a new trace; spans begun afterwards carry its ID.
func (r *recorder) nextTrace() {
	if r != nil {
		r.trace++
	}
}

// begin opens a span under parent (-1 for a root) and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), Parent: parent, Trace: r.trace})
	return len(r.spans) - 1
}

// add records a span measured elsewhere, such as on another
// goroutine, and returns its ID.
func (r *recorder) add(name string, start, end time.Time, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.epoch), End: end.Sub(r.epoch), Parent: parent, Trace: r.trace})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r != nil && id >= 0 {
		r.spans[id].End = time.Since(r.epoch)
	}
}

// set attaches a count or label to span id.
func (r *recorder) set(id int, key string, v any) {
	if r == nil || id < 0 {
		return
	}
	s := &r.spans[id]
	if s.Args == nil {
		s.Args = make(map[string]any)
	}
	s.Args[key] = v
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover (the union of the children's
// intervals, clipped to the parent).
func (r *recorder) selfTimes() []time.Duration {
	children := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] = s.End - s.Start - covered(s, r.spans, children[i])
	}
	return self
}

// covered is the length of the union of the kids' intervals within
// parent's interval.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeChrome writes the spans of each workload's traced pass as
// Chrome trace-event JSON, loadable in chrome://tracing and Perfetto:
// one process per workload, named after it, and in it one thread row
// per trace, holding complete ("X") events.
func writeChrome(path string, workloads []string, recs []*recorder) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	for p, r := range recs {
		pid := p + 1
		events = append(events, event{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": workloads[p]}})
		self := r.selfTimes()
		for i, s := range r.spans {
			args := map[string]any{"id": i, "parent": s.Parent, "trace": s.Trace, "self_us": us(self[i])}
			for k, v := range s.Args {
				args[k] = v
			}
			events = append(events, event{Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start), PID: pid, TID: s.Trace, Args: args})
		}
	}
	b, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
