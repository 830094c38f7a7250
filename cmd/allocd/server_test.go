package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"regalloc"
	"regalloc/internal/obs/promtext"
	"regalloc/internal/workloads"
)

const testSource = `
      SUBROUTINE SAXPYISH(N,A,X,Y)
      REAL A,X(*),Y(*)
      REAL T1,T2,T3,T4
      INTEGER I,N
      DO I = 1,N-3,4
         T1 = A*X(I)
         T2 = A*X(I+1)
         T3 = A*X(I+2)
         T4 = A*X(I+3)
         Y(I) = Y(I) + T1
         Y(I+1) = Y(I+1) + T2
         Y(I+2) = Y(I+2) + T3
         Y(I+3) = Y(I+3) + T4
      ENDDO
      RETURN
      END
`

const testGraph = `n 4
e 0 1
e 1 2
e 2 3
e 3 0
c 0 5
`

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(4)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

func postAlloc(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestAllocSource(t *testing.T) {
	_, ts := newTestServer(t)
	code, data := postAlloc(t, ts, "/v1/alloc?heuristic=briggs&kint=8&kfloat=4", testSource)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var resp allocResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	if resp.Input != "src" || len(resp.Units) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	u := resp.Units[0]
	if u.Unit != "SAXPYISH" || u.LiveRanges == 0 || u.Passes == 0 || u.PaletteInt == 0 {
		t.Fatalf("unit = %+v", u)
	}
	if u.Colors != nil {
		t.Fatal("colors included without ?colors=1")
	}

	code, data = postAlloc(t, ts, "/v1/alloc?colors=1", testSource)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var withColors allocResponse
	if err := json.Unmarshal(data, &withColors); err != nil {
		t.Fatal(err)
	}
	if len(withColors.Units[0].Colors) == 0 {
		t.Fatal("?colors=1 returned no assignment")
	}
}

func TestAllocGraphSniffedAndExplicit(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/v1/alloc?kint=2", "/v1/alloc?input=ig&kint=2"} {
		code, data := postAlloc(t, ts, path, testGraph)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, code, data)
		}
		var resp graphResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		// The 4-cycle with k=2 is the paper's Figure 3: briggs
		// colors it with zero spills.
		if resp.Input != "ig" || resp.Nodes != 4 || resp.Edges != 4 || len(resp.Spilled) != 0 {
			t.Fatalf("resp = %+v", resp)
		}
	}
	// Chaitin on the same graph must spill (the pessimistic half of
	// Figure 3).
	code, data := postAlloc(t, ts, "/v1/alloc?kint=2&heuristic=chaitin", testGraph)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var resp graphResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Spilled) == 0 {
		t.Fatal("chaitin k=2 on a 4-cycle did not spill")
	}
}

func TestAllocGraphPColor(t *testing.T) {
	_, ts := newTestServer(t)
	// The engine's seed and worker count are part of both cache keys:
	// each variant misses once, and its repeat is a raw hit with the
	// first reply's bytes.
	var data []byte
	for i, q := range []string{"workers=2&seed=7", "workers=2&seed=8", "workers=1&seed=7"} {
		reply := requireMissThenRawHit(t, ts, q, "/v1/alloc?heuristic=pcolor&colors=1&"+q, "text/plain", []byte(testGraph), 0x300+2*i)
		if i == 0 {
			data = reply
		}
	}
	// The JSON form shares the legacy form's raw key.
	seed, workers := uint64(7), 2
	body, err := json.Marshal(&AllocRequest{Source: testGraph, Heuristic: "pcolor", Seed: &seed, Workers: &workers, Colors: true})
	if err != nil {
		t.Fatal(err)
	}
	const jsonTraceID = "000000000000000000000000000003ff"
	code, jsonData, cache := sendTraced(t, ts, "/v1/alloc", "application/json", body, jsonTraceID)
	if code != http.StatusOK || cache != "hit" || !bytes.Equal(jsonData, data) {
		t.Fatalf("JSON form: status %d, X-Cache %q, reply %s; legacy reply %s", code, cache, jsonData, data)
	}
	requireRawHit(t, ts, jsonTraceID)

	var resp graphResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Heuristic != "pcolor" || resp.Rounds == 0 || resp.ColorsInt == 0 || len(resp.Colors) != 4 {
		t.Fatalf("resp = %+v", resp)
	}
}

// errorEnvelope decodes the structured error reply every non-2xx
// carries.
func errorEnvelope(t *testing.T, data []byte) *apiError {
	t.Helper()
	var e struct {
		Error *apiError `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Error == nil || e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("error reply not a structured envelope: %s", data)
	}
	return e.Error
}

func TestAllocErrors(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		path, body string
		want       int
		wantCode   string
	}{
		{"/v1/alloc", "", http.StatusBadRequest, "empty_body"},
		{"/v1/alloc", "NOT FORTRAN AT ALL ((", http.StatusBadRequest, "compile_failed"},
		{"/v1/alloc?kint=0", testSource, http.StatusBadRequest, "bad_k"},
		{"/v1/alloc?heuristic=bogus", testSource, http.StatusBadRequest, "bad_heuristic"},
		{"/v1/alloc?metric=bogus", testSource, http.StatusBadRequest, "bad_metric"},
		{"/v1/alloc?input=bogus", testSource, http.StatusBadRequest, "bad_request"},
		{"/v1/alloc?unit=MISSING", testSource, http.StatusBadRequest, "unknown_unit"},
		{"/v1/alloc?input=ig", "n x\n", http.StatusBadRequest, "bad_graph"},
	}
	for _, tc := range cases {
		code, data := postAlloc(t, ts, tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.path, code, tc.want, data)
		}
		if e := errorEnvelope(t, data); e.Code != tc.wantCode {
			t.Errorf("%s: error code %q, want %q (%s)", tc.path, e.Code, tc.wantCode, data)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/alloc")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/alloc: status %d, want 405", resp.StatusCode)
	}
	if e := errorEnvelope(t, data); e.Code != "method_not_allowed" {
		t.Errorf("GET /v1/alloc: error code %q", e.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	// Drive some work through both input kinds, concurrently, then
	// scrape.
	// nocache=1 keeps the counting semantics under test: with the
	// result cache on, repeats would be hits and record nothing.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postAlloc(t, ts, "/v1/alloc?kint=8&nocache=1", testSource)
			postAlloc(t, ts, "/v1/alloc?input=ig&kint=2&nocache=1", testGraph)
		}()
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	if err := promtext.Lint(data); err != nil {
		t.Fatalf("/metrics fails Lint: %v\n%s", err, data)
	}
	for _, want := range []string{
		"regalloc_runs_total 16",
		`regalloc_unit_runs_total{unit="SAXPYISH"} 8`,
		`regalloc_unit_runs_total{unit="graph"} 8`,
		"regalloc_events_total{", // live trace counters from the MetricsSink observer
		"allocd_ready 1",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAllocUnreachableReadStaysUp: a routine that reads a variable
// after its RETURN allocates (200) under every Figure 4 heuristic,
// and the server goes on serving. A panic in the allocator's worker
// goroutine is beyond net/http's recovery and would end the process.
func TestAllocUnreachableReadStaysUp(t *testing.T) {
	const src = `
      SUBROUTINE UNR(X, N)
      REAL X(10)
      INTEGER N, I, J
      J = N + 1
      X(1) = J
      RETURN
      I = J * 2
      X(2) = I
      END
`
	_, ts := newTestServer(t)
	for _, h := range []string{"briggs", "chaitin", "matula-beck", "irc", "ssa"} {
		code, data := postAlloc(t, ts, "/v1/alloc?heuristic="+h, src)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", h, code, data)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the reproducer: status %d", resp.StatusCode)
	}
	if code, data := postAlloc(t, ts, "/v1/alloc", testSource); code != http.StatusOK {
		t.Fatalf("next allocation: status %d: %s", code, data)
	}
}

func TestHealthReadyAndDrain(t *testing.T) {
	s, ts := newTestServer(t)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	s.beginShutdown()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz: status %d, want 503", resp.StatusCode)
	}
	// Liveness stays green while draining.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining /healthz: status %d, want 200", resp.StatusCode)
	}
}

func TestPprofMounted(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "goroutine") {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
}

// TestAllocTimeout locks the -alloc-timeout contract: a deadline
// that expires while the service is healthy is backpressure, 429
// with Retry-After — the same request succeeds on a quieter instant —
// not the drain path's 503.
func TestAllocTimeout(t *testing.T) {
	s := newServer(4)
	s.allocTimeout = time.Nanosecond
	req := httptest.NewRequest(http.MethodPost, "/v1/alloc", strings.NewReader(testSource))
	rec := httptest.NewRecorder()
	s.handleAlloc(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("expired -alloc-timeout: status %d, want 429\n%s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if e := errorEnvelope(t, rec.Body.Bytes()); e.Code != "admission_timeout" && e.Code != "deadline_exceeded" {
		t.Fatalf("timeout error code %q", e.Code)
	}

	// A generous deadline changes nothing.
	s.allocTimeout = time.Minute
	req = httptest.NewRequest(http.MethodPost, "/v1/alloc", strings.NewReader(testSource))
	rec = httptest.NewRecorder()
	s.handleAlloc(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ample -alloc-timeout: status %d, want 200\n%s", rec.Code, rec.Body)
	}
}

// TestUnitAllocTimeout: a single-unit request that outlives
// -alloc-timeout answers 429 deadline_exceeded, as a whole-program one
// does, and within 2 s of the deadline. Under briggs the deadline
// lands in the aggressive coalescing rounds, under irc in the
// conservative rounds of its spill baseline, and both check it every
// round. Compiling the source is not cancellable, so the timeout is
// set past twice the time the test takes to compile the same source.
func TestUnitAllocTimeout(t *testing.T) {
	src := workloads.Loops(1600).Source
	start := time.Now()
	if _, err := regalloc.Compile(src); err != nil {
		t.Fatal(err)
	}
	timeout := 2*time.Since(start) + 100*time.Millisecond
	s := newServer(4)
	s.allocTimeout = timeout
	for _, h := range []string{"briggs", "irc"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/alloc?unit=LOOPS&heuristic="+h, strings.NewReader(src))
		rec := httptest.NewRecorder()
		start := time.Now()
		s.handleAlloc(rec, req)
		took := time.Since(start)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d after %v, want 429\n%s", h, rec.Code, took, rec.Body)
		}
		e := errorEnvelope(t, rec.Body.Bytes())
		if e.Code != codeDeadlineExceeded {
			t.Fatalf("%s: error code %q, want %q", h, e.Code, codeDeadlineExceeded)
		}
		if took > timeout+2*time.Second {
			t.Fatalf("%s: answered after %v, want within %v", h, took, timeout+2*time.Second)
		}
		t.Logf("%s: 429 after %v (timeout %v): %s", h, took, timeout, e.Detail)
	}
}

// TestAllocPortfolio drives the ?portfolio= path: full default race,
// a named subset, and the race report in the reply.
func TestAllocPortfolio(t *testing.T) {
	_, ts := newTestServer(t)
	code, data := postAlloc(t, ts, "/v1/alloc?portfolio=1&kint=8&kfloat=4&colors=1", testSource)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var resp allocResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	if len(resp.Units) != 1 || resp.Units[0].Portfolio == nil {
		t.Fatalf("resp = %+v", resp)
	}
	u := resp.Units[0]
	p := u.Portfolio
	// Default set: 7 heuristic variants (chaitin, briggs, briggs/cost,
	// briggs/degree, mb, ssa, irc) + 3 pcolor seeds + 1 Jones–Plassmann
	// entrant.
	if len(p.Candidates) != 11 {
		t.Fatalf("candidates = %d, want 11: %+v", len(p.Candidates), p)
	}
	if p.Winner == "" || p.Mode != "race-to-best" {
		t.Fatalf("portfolio = %+v", p)
	}
	finished := 0
	winnerCost := -1.0
	for _, c := range p.Candidates {
		if c.Status == "finished" {
			finished++
		}
		if c.Name == p.Winner {
			winnerCost = c.SpillCost
		}
	}
	if finished == 0 || winnerCost < 0 {
		t.Fatalf("no finisher or missing winner row: %+v", p)
	}
	for _, c := range p.Candidates {
		if c.Status == "finished" && c.SpillCost < winnerCost {
			t.Fatalf("candidate %s (cost %v) beat winner %s (cost %v)", c.Name, c.SpillCost, p.Winner, winnerCost)
		}
	}
	if len(u.Colors) == 0 {
		t.Fatal("?colors=1 returned no assignment")
	}

	// Named subset with a custom seed list and mode.
	code, data = postAlloc(t, ts, "/v1/alloc?portfolio=briggs,chaitin,pcolor/s9&pseeds=9&pmode=first-good", testSource)
	if code != http.StatusOK {
		t.Fatalf("subset: status %d: %s", code, data)
	}
	resp = allocResponse{}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	p = resp.Units[0].Portfolio
	if p == nil || len(p.Candidates) != 3 || p.Mode != "first-good" {
		t.Fatalf("subset portfolio = %+v", p)
	}

	// The registry now carries portfolio families, Lint-clean.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mdata, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := promtext.Lint(mdata); err != nil {
		t.Fatalf("/metrics fails Lint: %v\n%s", err, mdata)
	}
	for _, want := range []string{
		"regalloc_portfolio_races_total 2",
		"regalloc_portfolio_wins_total{strategy=",
	} {
		if !strings.Contains(string(mdata), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAllocPortfolioErrors locks the 400s for a malformed race spec.
func TestAllocPortfolioErrors(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{
		"/v1/alloc?portfolio=bogus-strategy",
		"/v1/alloc?portfolio=1&pmode=bogus",
		"/v1/alloc?portfolio=1&pbudget=bogus",
		"/v1/alloc?portfolio=1&pseeds=notanumber",
		"/v1/alloc?portfolio=1&unit=MISSING",
	} {
		code, data := postAlloc(t, ts, path, testSource)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", path, code, data)
		}
	}
}

// TestAllocPortfolioMaxInflightOne is the admission deadlock guard:
// the request releases its own slot before racing, so candidates can
// be admitted one at a time even when -max-inflight is 1.
func TestAllocPortfolioMaxInflightOne(t *testing.T) {
	s := newServer(1)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	code, data := postAlloc(t, ts, "/v1/alloc?portfolio=1", testSource)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var resp allocResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	p := resp.Units[0].Portfolio
	if p == nil || p.Winner == "" {
		t.Fatalf("portfolio = %+v", p)
	}
	if len(s.sem) != 0 {
		t.Fatalf("semaphore not drained after the race: %d slots held", len(s.sem))
	}
}

// TestAllocErrorStatuses locks the error classification the review
// tightened: a cancelled request is 503 (not a client-input 400), an
// oversized body is 413, and a short body read is 400.
func TestAllocErrorStatuses(t *testing.T) {
	s := newServer(4)

	// Cancelled context: whether it dies queued or inside
	// AllocateAllContext, the answer is 503.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/alloc", strings.NewReader(testSource)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.handleAlloc(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled request: status %d, want 503\n%s", rec.Code, rec.Body)
	}

	// Oversized body: 413.
	req = httptest.NewRequest(http.MethodPost, "/v1/alloc", strings.NewReader(strings.Repeat("x", maxBodyBytes+1)))
	rec = httptest.NewRecorder()
	s.handleAlloc(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413\n%s", rec.Code, rec.Body)
	}

	// Body read error that is not a size overflow: 400, not 413.
	req = httptest.NewRequest(http.MethodPost, "/v1/alloc", io.MultiReader(strings.NewReader("abc"), iotest.ErrReader(errors.New("peer reset"))))
	rec = httptest.NewRecorder()
	s.handleAlloc(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("broken body read: status %d, want 400\n%s", rec.Code, rec.Body)
	}
}
