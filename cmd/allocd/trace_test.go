package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"regalloc/internal/reqtrace"
)

// knownTraceparent is the W3C spec's example header; tests send it so
// every assertion below can grep for its trace ID.
const (
	knownTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	knownTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
)

// postTraced POSTs body with a traceparent header and returns the
// status, response body, and response traceparent.
func postTraced(t *testing.T, ts *httptest.Server, path, body, traceparent string) (int, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get("traceparent")
}

// debugRequests fetches and decodes /debug/requests.
func debugRequests(t *testing.T, ts *httptest.Server) []reqtrace.RequestRecord {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests: status %d", resp.StatusCode)
	}
	var out struct {
		Requests []reqtrace.RequestRecord `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Requests
}

func findRecord(recs []reqtrace.RequestRecord, traceID string) *reqtrace.RequestRecord {
	for i := range recs {
		if recs[i].TraceID == traceID {
			return &recs[i]
		}
	}
	return nil
}

// spansNamed returns the record's spans whose name has the prefix.
func spansNamed(rec *reqtrace.RequestRecord, prefix string) []reqtrace.Span {
	var out []reqtrace.Span
	for _, sp := range rec.Spans {
		if strings.HasPrefix(sp.Name, prefix) {
			out = append(out, sp)
		}
	}
	return out
}

// TestTraceCausalChain is the tentpole's acceptance test: one request
// with a known traceparent must be traceable end to end — the
// response continues the trace, /debug/requests holds its span tree
// (cache outcome and allocator phases whose durations reconcile
// exactly with the response's phase_ns), the /metrics latency
// histogram carries the trace ID as an exemplar, and the access log
// line names the same trace.
func TestTraceCausalChain(t *testing.T) {
	s, ts := newTestServer(t)
	logPath := filepath.Join(t.TempDir(), "access.log")
	al, err := newAccessLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	s.access = al

	code, data, tp := postTraced(t, ts, "/v1/alloc?heuristic=briggs&kint=4&kfloat=4&unit=SAXPYISH", testSource, knownTraceparent)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}

	// The response continues the client's trace under a fresh span.
	sc, err := reqtrace.Parse(tp)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", tp, err)
	}
	if sc.TraceID.String() != knownTraceID {
		t.Fatalf("response trace id = %s, want %s", sc.TraceID, knownTraceID)
	}
	if sc.SpanID.String() == "00f067aa0ba902b7" {
		t.Fatal("server reused the client's span id instead of minting a child")
	}

	unit := singleUnit(t, data)

	// The flight recorder holds the full span tree for that trace ID.
	rec := findRecord(debugRequests(t, ts), knownTraceID)
	if rec == nil {
		t.Fatal("/debug/requests has no record for the request's trace id")
	}
	if rec.Status != http.StatusOK || rec.Error {
		t.Fatalf("record = %+v", rec)
	}
	if got := rec.Annotation("unit"); got != "SAXPYISH" {
		t.Errorf("unit annotation = %q", got)
	}
	if got := rec.Annotation("heuristic"); got != "briggs" {
		t.Errorf("heuristic annotation = %q", got)
	}
	if got := rec.Annotation("cache"); got != "miss" {
		t.Errorf("cache annotation = %q, want miss (first request)", got)
	}
	lookups := spansNamed(rec, "cache:lookup")
	if len(lookups) != 1 {
		t.Fatalf("cache:lookup spans = %d, want 1", len(lookups))
	}
	requireOneAllocSpan(t, rec, "briggs", unit)

	// The latency histogram carries the trace ID as an exemplar.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	wantExemplar := `# {trace_id="` + knownTraceID + `"}`
	var exemplarOnBucket bool
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "allocd_request_duration_seconds_bucket") && strings.Contains(line, wantExemplar) {
			exemplarOnBucket = true
			break
		}
	}
	if !exemplarOnBucket {
		t.Fatal("/metrics latency histogram has no exemplar with the request's trace id")
	}

	// The access log line joins the same trace to the request outcome.
	if err := s.access.Close(); err != nil {
		t.Fatal(err)
	}
	s.access = nil
	logData, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var entry accessEntry
	if err := json.Unmarshal([]byte(strings.SplitN(strings.TrimSpace(string(logData)), "\n", 2)[0]), &entry); err != nil {
		t.Fatalf("access log line not JSON: %v\n%s", err, logData)
	}
	if entry.TraceID != knownTraceID {
		t.Errorf("access log trace_id = %q, want %q", entry.TraceID, knownTraceID)
	}
	if entry.Unit != "SAXPYISH" || entry.Heuristic != "briggs" || entry.Cache != "miss" {
		t.Errorf("access log entry = %+v", entry)
	}
	if entry.Status != http.StatusOK || entry.DurNS <= 0 {
		t.Errorf("access log outcome = %+v", entry)
	}

	// The same request again is a cache hit, and the front end and
	// key derivation that make up nearly all of it are attributed:
	// one compile and one cachekey span under the request, both over
	// before the lookup starts.
	const hitTraceID = "0af7651916cd43dd8448eb211c80319c"
	code, data, _ = postTraced(t, ts, "/v1/alloc?heuristic=briggs&kint=4&kfloat=4&unit=SAXPYISH", testSource, "00-"+hitTraceID+"-b7ad6b7169203331-01")
	if code != http.StatusOK {
		t.Fatalf("repeat: status %d: %s", code, data)
	}
	hit := findRecord(debugRequests(t, ts), hitTraceID)
	if hit == nil {
		t.Fatal("/debug/requests has no record for the repeat request")
	}
	if got := hit.Annotation("cache"); got != "hit" {
		t.Fatalf("repeat cache annotation = %q, want hit", got)
	}
	root := spansNamed(hit, "request")
	hitLookups := spansNamed(hit, "cache:lookup")
	if len(root) != 1 || len(hitLookups) != 1 {
		t.Fatalf("repeat: request spans = %d, cache:lookup spans = %d, want 1 each", len(root), len(hitLookups))
	}
	for _, name := range []string{"compile", "cachekey"} {
		sps := spansNamed(hit, name)
		if len(sps) != 1 {
			t.Fatalf("repeat: %s spans = %d, want 1", name, len(sps))
		}
		if sps[0].Parent != root[0].ID {
			t.Errorf("repeat: %s span parented to %d, want the request span %d", name, sps[0].Parent, root[0].ID)
		}
		if end := sps[0].StartNS + sps[0].DurNS; end > hitLookups[0].StartNS {
			t.Errorf("repeat: %s span ends at %dns, after cache:lookup starts at %dns", name, end, hitLookups[0].StartNS)
		}
	}

	// irc and ssa run drivers of their own, irc around a whole Figure
	// 4 baseline allocation, and each still records one alloc span.
	for i, h := range []string{"irc", "ssa"} {
		traceID := fmt.Sprintf("%032x", i+1)
		code, data, _ := postTraced(t, ts, "/v1/alloc?heuristic="+h+"&kint=4&kfloat=4&unit=SAXPYISH", testSource, "00-"+traceID+"-b7ad6b7169203331-01")
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", h, code, data)
		}
		unit := singleUnit(t, data)
		rec := findRecord(debugRequests(t, ts), traceID)
		if rec == nil {
			t.Fatalf("%s: /debug/requests has no record for trace %s", h, traceID)
		}
		requireOneAllocSpan(t, rec, h, unit)
	}
}

// singleUnit decodes a one-unit allocation response.
func singleUnit(t *testing.T, data []byte) unitResponse {
	t.Helper()
	var resp allocResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(resp.Units) != 1 {
		t.Fatalf("units = %d, want 1", len(resp.Units))
	}
	return resp.Units[0]
}

// spanAttr returns the value of sp's attribute key, or "".
func spanAttr(sp reqtrace.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// requireOneAllocSpan checks the allocator's part of a traced
// SAXPYISH request: exactly one alloc span, labeled with the request's
// heuristic and the response's pass count, and phase spans inside it
// whose durations reconcile exactly with the response's phase_ns
// (both are the same clock readings).
func requireOneAllocSpan(t *testing.T, rec *reqtrace.RequestRecord, heuristic string, unit unitResponse) {
	t.Helper()
	run := requireAllocSpan(t, rec, "alloc:SAXPYISH", heuristic)
	if got, want := spanAttr(run, "passes"), strconv.Itoa(unit.Passes); got != want {
		t.Errorf("%s: alloc span passes = %q, response passes = %s", heuristic, got, want)
	}
	var wantPhaseNS, gotPhaseNS int64
	for _, ns := range unit.PhaseNS {
		wantPhaseNS += ns
	}
	for _, sp := range requirePhasesInside(t, rec, run, heuristic) {
		gotPhaseNS += sp.DurNS
	}
	if gotPhaseNS != wantPhaseNS {
		t.Fatalf("%s: summed phase spans = %dns, response phase_ns = %dns (must reconcile exactly)", heuristic, gotPhaseNS, wantPhaseNS)
	}
}

// requireAllocSpan returns the record's one span called name and
// checks its heuristic attribute.
func requireAllocSpan(t *testing.T, rec *reqtrace.RequestRecord, name, heuristic string) reqtrace.Span {
	t.Helper()
	allocs := spansNamed(rec, name)
	if len(allocs) != 1 {
		t.Fatalf("%s: %s spans = %d, want 1", heuristic, name, len(allocs))
	}
	if got := spanAttr(allocs[0], "heuristic"); got != heuristic {
		t.Errorf("%s: %s span heuristic = %q", heuristic, name, got)
	}
	return allocs[0]
}

// requirePhasesInside returns the record's phase spans after checking
// that they are children of run, in order, not overlapping, and inside
// it. The run span is the allocation's wall time, so it may exceed
// their sum.
func requirePhasesInside(t *testing.T, rec *reqtrace.RequestRecord, run reqtrace.Span, heuristic string) []reqtrace.Span {
	t.Helper()
	phases := spansNamed(rec, "phase:")
	prevEnd := run.StartNS
	for _, sp := range phases {
		if sp.Parent != run.ID {
			t.Errorf("%s: phase span %s not parented to the alloc span", heuristic, sp.Name)
		}
		if sp.StartNS < prevEnd {
			t.Errorf("%s: %s (pass %s) starts at %dns, before %dns (the previous phase's end, or the alloc span's start)",
				heuristic, sp.Name, spanAttr(sp, "pass"), sp.StartNS, prevEnd)
		}
		prevEnd = sp.StartNS + sp.DurNS
	}
	if end := run.StartNS + run.DurNS; prevEnd > end {
		t.Errorf("%s: last phase span ends at %dns, after the alloc span ends at %dns", heuristic, prevEnd, end)
	}
	return phases
}

// TestTraceGraphPaths: both graph paths record their alloc span and
// phase spans through the same sink as source allocations.
func TestTraceGraphPaths(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		heuristic string
		phases    []string
	}{
		{"briggs", []string{"phase:simplify", "phase:color"}},
		{"pcolor", []string{"phase:color"}},
	} {
		code, data, tp := postTraced(t, ts, "/v1/alloc?kint=2&heuristic="+tc.heuristic, testGraph, "")
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.heuristic, code, data)
		}
		sc, err := reqtrace.Parse(tp)
		if err != nil {
			t.Fatal(err)
		}
		rec := findRecord(debugRequests(t, ts), sc.TraceID.String())
		if rec == nil {
			t.Fatalf("%s: no record for the graph request", tc.heuristic)
		}
		run := requireAllocSpan(t, rec, "alloc:graph", tc.heuristic)
		var names []string
		for _, sp := range requirePhasesInside(t, rec, run, tc.heuristic) {
			names = append(names, sp.Name)
		}
		if strings.Join(names, ",") != strings.Join(tc.phases, ",") {
			t.Errorf("%s: phase spans %v, want %v", tc.heuristic, names, tc.phases)
		}
	}
}

// TestTracePortfolioCandidates asserts the race is visible in the
// trace: one candidate:* span per started strategy, exactly one
// annotated winner, and the winner's allocator phases hanging off its
// candidate span.
func TestTracePortfolioCandidates(t *testing.T) {
	_, ts := newTestServer(t)
	code, data, _ := postTraced(t, ts, "/v1/alloc?portfolio=chaitin,briggs&kint=4&kfloat=4", testSource, knownTraceparent)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	rec := findRecord(debugRequests(t, ts), knownTraceID)
	if rec == nil {
		t.Fatal("no record for the portfolio request's trace id")
	}
	cands := spansNamed(rec, "candidate:")
	if len(cands) != 2 {
		t.Fatalf("candidate spans = %d, want 2", len(cands))
	}
	winners := 0
	byID := map[uint32]reqtrace.Span{}
	for _, sp := range cands {
		byID[sp.ID] = sp
		if spanAttr(sp, "winner") == "true" {
			winners++
		}
		if spanAttr(sp, "status") != "finished" {
			t.Errorf("candidate %s status = %q", sp.Name, spanAttr(sp, "status"))
		}
	}
	if winners != 1 {
		t.Fatalf("winner-annotated candidates = %d, want exactly 1", winners)
	}
	// Each finished candidate ran an allocation under its own span.
	allocSpans := spansNamed(rec, "alloc:SAXPYISH")
	if len(allocSpans) != 2 {
		t.Fatalf("alloc spans = %d, want 2 (one per candidate)", len(allocSpans))
	}
	for _, sp := range allocSpans {
		if _, ok := byID[sp.Parent]; !ok {
			t.Errorf("alloc span parented to %d, not a candidate span", sp.Parent)
		}
	}
	if rec.Annotation("heuristic") != "portfolio" || rec.Annotation("cache") != "bypass" {
		t.Errorf("annotations = %v", rec.Annots)
	}
}

// TestTraceMintedWithoutHeader: a client that sends no traceparent
// still gets a valid one back, and the request is recorded under it.
func TestTraceMintedWithoutHeader(t *testing.T) {
	_, ts := newTestServer(t)
	code, _, tp := postTraced(t, ts, "/v1/alloc?heuristic=briggs&kint=8", testSource, "")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	sc, err := reqtrace.Parse(tp)
	if err != nil {
		t.Fatalf("minted traceparent %q: %v", tp, err)
	}
	if findRecord(debugRequests(t, ts), sc.TraceID.String()) == nil {
		t.Fatal("minted trace not in /debug/requests")
	}
}

// TestTraceErrorRetained: an errored request (bad source) must be
// retained by the flight recorder regardless of how fast it failed —
// the error pool is disjoint from the slow-success pool.
func TestTraceErrorRetained(t *testing.T) {
	_, ts := newTestServer(t)
	// Warm the success pool so retention of the error is not a
	// fits-anyway artifact.
	for i := 0; i < 3; i++ {
		postTraced(t, ts, "/v1/alloc?heuristic=briggs&kint=8", testSource, "")
	}
	code, _, tp := postTraced(t, ts, "/v1/alloc", "      GARBAGE THAT DOES NOT COMPILE", knownTraceparent)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	sc, err := reqtrace.Parse(tp)
	if err != nil || sc.TraceID.String() != knownTraceID {
		t.Fatalf("error response traceparent = %q (%v)", tp, err)
	}
	rec := findRecord(debugRequests(t, ts), knownTraceID)
	if rec == nil {
		t.Fatal("errored request not retained")
	}
	if !rec.Error || rec.Status != http.StatusBadRequest {
		t.Fatalf("record = %+v", rec)
	}
}

// TestAccessLogDrain is the drain-durability satellite: a request
// in flight when shutdown begins still gets its access-log line, and
// Close flushes it to disk before the process would exit.
func TestAccessLogDrain(t *testing.T) {
	s, ts := newTestServer(t)
	logPath := filepath.Join(t.TempDir(), "access.log")
	al, err := newAccessLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	s.access = al

	done := make(chan string, 1)
	go func() {
		_, _, tp := postTraced(t, ts, "/v1/alloc?heuristic=briggs&kint=4", testSource, "")
		sc, _ := reqtrace.Parse(tp)
		done <- sc.TraceID.String()
	}()
	// Begin the drain while the request may still be in flight; the
	// handler finishes (Shutdown semantics: in-flight requests are
	// served) and writes its line before Close flushes.
	s.beginShutdown()
	traceID := <-done

	if err := s.access.Close(); err != nil {
		t.Fatal(err)
	}
	s.access = nil
	logData, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(logData), traceID) {
		t.Fatalf("access log after drain missing the in-flight request's line (trace %s):\n%s", traceID, logData)
	}
}

// TestTraceNoGoroutineLeak: the tracing layer (recorder, traces,
// access log) spawns no goroutines of its own; after the server
// closes, the goroutine count returns to its baseline.
func TestTraceNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := newServer(4)
	ts := httptest.NewServer(s.routes())
	for i := 0; i < 5; i++ {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/alloc?heuristic=briggs&kint=4", strings.NewReader(testSource))
		req.Header.Set("traceparent", knownTraceparent)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d at baseline, %d after shutdown", baseline, runtime.NumGoroutine())
}
