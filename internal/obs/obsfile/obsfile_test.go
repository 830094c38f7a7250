package obsfile

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"regalloc/internal/obs"
)

// TestOpenWritesBothFiles: one span through the combined sink reaches
// the JSON-lines trace, the trace-event file and the metrics sink.
func TestOpenWritesBothFiles(t *testing.T) {
	dir := t.TempDir()
	trace, perfetto := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "t.json")
	sink, ms, closeAll, err := Open(trace, perfetto, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(sink, "u")
	tr.End(obs.PhaseSimplify, tr.Begin(obs.PhaseSimplify))
	if err := closeAll(); err != nil {
		t.Fatal(err)
	}
	lines, err := os.ReadFile(trace)
	if err != nil || strings.Count(string(lines), "\n") != 2 {
		t.Fatalf("trace %q, %v; want two lines", lines, err)
	}
	data, err := os.ReadFile(perfetto)
	if err != nil || !json.Valid(data) {
		t.Fatalf("perfetto file %q, %v; want JSON", data, err)
	}
	if ms == nil || !strings.Contains(ms.Snapshot().String(), "simplify") {
		t.Fatal("metrics sink missed the span")
	}
}

// TestOpenNothing: with no flag set there is no sink and nothing to
// close.
func TestOpenNothing(t *testing.T) {
	sink, ms, closeAll, err := Open("", "", false)
	if err != nil || sink != nil || ms != nil {
		t.Fatalf("Open() = %v, %v, %v", sink, ms, err)
	}
	if err := closeAll(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenReportsWriteErrors: an unwritable trace fails Open, and an
// unwritable trace-event file fails close, each naming the file it
// could not write.
func TestOpenReportsWriteErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out")
	if _, _, _, err := Open(missing, "", false); err == nil {
		t.Fatal("Open succeeded on an unwritable trace path")
	}
	sink, _, closeAll, err := Open("", missing, false)
	if err != nil {
		t.Fatal(err)
	}
	sink.Emit(obs.Event{Time: time.Now(), Kind: obs.KindSpanBegin, Unit: "u", Phase: obs.PhaseSimplify})
	if err := closeAll(); err == nil || !strings.HasPrefix(err.Error(), "writing perfetto trace: ") {
		t.Fatalf("close = %v, want a perfetto write error", err)
	}
}
