package traceevent

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"regalloc/internal/obs"
)

// decoded mirrors traceEvent for reading the output back.
type decoded struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type decodedFile struct {
	TraceEvents     []decoded `json:"traceEvents"`
	DisplayTimeUnit string    `json:"displayTimeUnit"`
}

// emitRun feeds sink one synthetic two-phase pass (coalesce nested
// in build) through a real Tracer, for two units.
func emitRun(sink obs.Sink) {
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	for u, unit := range []string{"ALPHA", "BETA"} {
		t := base.Add(time.Duration(u) * 10 * time.Millisecond)
		clock := func() time.Time { t = t.Add(time.Millisecond); return t }
		tr := obs.NewWithClock(sink, unit, clock)
		build := tr.Begin(obs.PhaseBuild)
		coalesce := tr.Begin(obs.PhaseCoalesce)
		tr.Counter(obs.PhaseCoalesce, "coalesce.moves", 3)
		tr.End(obs.PhaseCoalesce, coalesce)
		tr.End(obs.PhaseBuild, build)
		simplify := tr.Begin(obs.PhaseSimplify)
		tr.SpillDecision(7, 9, 40, 4.4)
		tr.End(obs.PhaseSimplify, simplify)
		col := tr.Begin(obs.PhaseColor)
		tr.ColorReuse(7, 9, 2, 1)
		tr.End(obs.PhaseColor, col)
	}
}

func TestWriteJSONValidAndBalanced(t *testing.T) {
	sink := New()
	emitRun(sink)
	var buf bytes.Buffer
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	var f decodedFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no events")
	}

	threadNames := map[int]string{}
	depth := map[int]int{}                 // tid -> open B spans
	buildWindow := map[int][2]float64{}    // tid -> [B,E] ts of build
	coalesceWindow := map[int][2]float64{} // tid -> [B,E] ts of coalesce
	counts := map[string]int{}
	for _, e := range f.TraceEvents {
		if e.TS < 0 {
			t.Fatalf("negative ts in %+v", e)
		}
		counts[e.Ph]++
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				threadNames[e.TID] = e.Args["name"].(string)
			}
		case "B":
			depth[e.TID]++
			if e.Name == "build" {
				buildWindow[e.TID] = [2]float64{e.TS, -1}
			}
			if e.Name == "coalesce" {
				coalesceWindow[e.TID] = [2]float64{e.TS, -1}
			}
		case "E":
			depth[e.TID]--
			if depth[e.TID] < 0 {
				t.Fatalf("E without matching B on tid %d", e.TID)
			}
			if e.Name == "build" {
				w := buildWindow[e.TID]
				w[1] = e.TS
				buildWindow[e.TID] = w
			}
			if e.Name == "coalesce" {
				w := coalesceWindow[e.TID]
				w[1] = e.TS
				coalesceWindow[e.TID] = w
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Errorf("tid %d: %d unclosed B span(s)", tid, d)
		}
	}
	if counts["B"] != counts["E"] {
		t.Errorf("B/E mismatch: %d vs %d", counts["B"], counts["E"])
	}
	if counts["C"] != 2 || counts["i"] != 4 {
		t.Errorf("counter/instant counts = %d/%d, want 2/4", counts["C"], counts["i"])
	}
	if len(threadNames) != 2 {
		t.Fatalf("thread names = %v, want 2 units", threadNames)
	}
	// The nested coalesce span must sit strictly inside its unit's
	// build span — the property that makes the Perfetto view show
	// the paper's "coalesce inside build" structure.
	for tid, cw := range coalesceWindow {
		bw := buildWindow[tid]
		if !(bw[0] <= cw[0] && cw[1] <= bw[1] && cw[1] >= cw[0]) {
			t.Errorf("tid %d: coalesce [%g,%g] not nested in build [%g,%g]", tid, cw[0], cw[1], bw[0], bw[1])
		}
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f decodedFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if f.TraceEvents == nil {
		t.Fatal("traceEvents must be an array, not null")
	}
}

func TestMultiDropsNilSink(t *testing.T) {
	var s *Sink
	if got := obs.Multi(s); got != nil {
		t.Fatal("typed-nil *Sink not dropped by obs.Multi")
	}
}
