package obs

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestLatencyHistogramObserve(t *testing.T) {
	var h LatencyHistogram
	for i, d := range []time.Duration{500 * time.Nanosecond, time.Microsecond, 3 * time.Microsecond, time.Millisecond, time.Minute} {
		if got, want := h.Observe(d), [...]int{0, 0, 2, 9, NumLatencyBuckets}[i]; got != want {
			t.Fatalf("Observe(%s) = bucket %d, want %d", d, got, want)
		}
	}
	if h.Count != 5 {
		t.Fatalf("count = %d, want 5", h.Count)
	}
	if h.MaxNS != time.Minute.Nanoseconds() {
		t.Fatalf("max = %d, want 1min", h.MaxNS)
	}
	// 500ns and 1µs land in the first bucket (<= 1µs), 3µs in the
	// 5µs bucket, 1ms in the 1ms bucket, 1min in the overflow.
	if h.Buckets[0] != 2 || h.Buckets[2] != 1 || h.Buckets[9] != 1 || h.Buckets[NumLatencyBuckets] != 1 {
		t.Fatalf("buckets = %v", h.Buckets)
	}
	var sum int64
	for _, n := range h.Buckets {
		sum += n
	}
	if sum != h.Count {
		t.Fatalf("bucket sum %d != count %d", sum, h.Count)
	}
}

func TestLatencyHistogramMerge(t *testing.T) {
	var a, b, both LatencyHistogram
	for i := 0; i < 50; i++ {
		d := time.Duration(i) * 37 * time.Microsecond
		a.Observe(d)
		both.Observe(d)
	}
	for i := 0; i < 70; i++ {
		d := time.Duration(i) * 113 * time.Microsecond
		b.Observe(d)
		both.Observe(d)
	}
	a.Merge(b)
	if a != both {
		t.Fatalf("merge mismatch:\n got %+v\nwant %+v", a, both)
	}
}

// TestRegistryConcurrent hammers one Registry from GOMAXPROCS
// goroutines and asserts every total reconciles exactly with the sum
// of the recorded summaries — the integer-accumulation contract that
// makes the Registry's numbers trustworthy under concurrency.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 2000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s := RunSummary{
					Unit:           fmt.Sprintf("unit-%d", w%4),
					Passes:         1 + i%3,
					Spills:         i % 7,
					SpillCostMilli: SpillCostMilli(float64(i%7) * 1.5),
					CoalescedMoves: i % 5,
					PaletteInt:     1 + (w+i)%16,
					PaletteFloat:   (w + i) % 8,
					TotalNS:        int64(1000 + i),
				}
				s.PhaseNS[PhaseBuild] = int64(100 + i)
				s.PhaseNS[PhaseColor] = int64(10 + i%50)
				if i%11 == 0 {
					s = RunSummary{Unit: s.Unit, Error: true}
				}
				reg.Record(s)
			}
		}(w)
	}
	wg.Wait()

	snap := reg.Snapshot()
	n := int64(workers * perWorker)
	if snap.Runs != n {
		t.Fatalf("runs = %d, want %d", snap.Runs, n)
	}

	// Replay the same deterministic schedule single-threaded and
	// compare every aggregate exactly.
	want := NewRegistry()
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			s := RunSummary{
				Unit:           fmt.Sprintf("unit-%d", w%4),
				Passes:         1 + i%3,
				Spills:         i % 7,
				SpillCostMilli: SpillCostMilli(float64(i%7) * 1.5),
				CoalescedMoves: i % 5,
				PaletteInt:     1 + (w+i)%16,
				PaletteFloat:   (w + i) % 8,
				TotalNS:        int64(1000 + i),
			}
			s.PhaseNS[PhaseBuild] = int64(100 + i)
			s.PhaseNS[PhaseColor] = int64(10 + i%50)
			if i%11 == 0 {
				s = RunSummary{Unit: s.Unit, Error: true}
			}
			want.Record(s)
		}
	}
	ws := want.Snapshot()
	if snap.Errors != ws.Errors || snap.Passes != ws.Passes || snap.Spills != ws.Spills ||
		snap.SpillCostMilli != ws.SpillCostMilli || snap.CoalescedMoves != ws.CoalescedMoves ||
		snap.PaletteIntMax != ws.PaletteIntMax || snap.PaletteFloatMax != ws.PaletteFloatMax {
		t.Fatalf("totals diverge:\n got %+v\nwant %+v", snap, ws)
	}
	if snap.Phase != ws.Phase || snap.Total != ws.Total {
		t.Fatalf("histograms diverge")
	}
	for u, c := range ws.UnitRuns {
		if snap.UnitRuns[u] != c {
			t.Fatalf("unit %s: %d runs, want %d", u, snap.UnitRuns[u], c)
		}
	}
	if snap.String() != ws.String() {
		t.Fatalf("String not deterministic for equal snapshots")
	}
}

// TestRegistrySnapshotIsolated checks a snapshot is a copy: mutating
// the registry afterwards must not change it.
func TestRegistrySnapshotIsolated(t *testing.T) {
	reg := NewRegistry()
	reg.Record(RunSummary{Unit: "a", Spills: 3, TotalNS: 5000})
	snap := reg.Snapshot()
	reg.Record(RunSummary{Unit: "a", Spills: 9, TotalNS: 9000})
	if snap.Spills != 3 || snap.UnitRuns["a"] != 1 || snap.Total.Count != 1 {
		t.Fatalf("snapshot mutated by later Record: %+v", snap)
	}
}

// TestMetricsStringDeterministic locks the sorted-key contract of the
// Metrics text dump: two sinks fed the same events in different
// orders print identically.
func TestMetricsStringDeterministic(t *testing.T) {
	events := []Event{
		{Kind: KindCounter, Phase: PhaseBuild, Name: "graph.nodes", Value: 10},
		{Kind: KindCounter, Phase: PhaseSpill, Name: "spill.ranges", Value: 2},
		{Kind: KindCounter, Phase: PhaseBuild, Name: "graph.edges", Value: 40},
		{Kind: KindCounter, Phase: PhaseSimplify, Name: "simplify.scan_steps", Value: 7},
		{Kind: KindSpanEnd, Phase: PhaseBuild, Dur: time.Millisecond},
	}
	a, b := NewMetricsSink(), NewMetricsSink()
	for _, e := range events {
		a.Emit(e)
	}
	for i := len(events) - 1; i >= 0; i-- {
		b.Emit(events[i])
	}
	if got, want := a.Snapshot().String(), b.Snapshot().String(); got != want {
		t.Fatalf("dump depends on emission order:\n%s\nvs\n%s", got, want)
	}
}

// TestRegistryUnitKeyCap locks the cardinality bound: once MaxUnitKeys
// distinct unit names are tracked, further new names fold into
// OverflowUnit, while runs_total still reconciles with the per-unit sum.
func TestRegistryUnitKeyCap(t *testing.T) {
	reg := NewRegistry()
	total := MaxUnitKeys + 100
	for i := 0; i < total; i++ {
		reg.Record(RunSummary{Unit: fmt.Sprintf("u%04d", i)})
	}
	reg.Record(RunSummary{Unit: "u0000"}) // existing keys still count directly
	snap := reg.Snapshot()
	if len(snap.UnitRuns) != MaxUnitKeys+1 {
		t.Fatalf("tracked %d unit keys, want cap %d + overflow", len(snap.UnitRuns), MaxUnitKeys)
	}
	if got := snap.UnitRuns[OverflowUnit]; got != 100 {
		t.Fatalf("overflow bucket = %d, want 100", got)
	}
	if got := snap.UnitRuns["u0000"]; got != 2 {
		t.Fatalf("existing key after cap = %d, want 2", got)
	}
	var sum int64
	for _, n := range snap.UnitRuns {
		sum += n
	}
	if sum != snap.Runs {
		t.Fatalf("unit runs sum %d != runs_total %d", sum, snap.Runs)
	}
}
