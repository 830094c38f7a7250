// v1_test.go locks the /v1 API contract: one parser behind two
// request forms, the structured error envelope, the batch endpoint's
// independent per-item failures, and the result cache's observable
// guarantees (byte-identical hits, singleflight collapse).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// postJSON sends a JSON-form /v1 request and returns status, body,
// and the X-Cache header.
func postJSON(t *testing.T, ts *httptest.Server, path string, req any) (int, []byte, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get("X-Cache")
}

// TestV1JSONQueryParity is the shared-parser guarantee: the JSON
// body form and the legacy query form of the same request produce
// byte-identical responses (the second is a cache hit of the first,
// which is only possible if both resolve to the same canonical
// request).
func TestV1JSONQueryParity(t *testing.T) {
	_, ts := newTestServer(t)
	code, legacy := postAlloc(t, ts, "/v1/alloc?heuristic=briggs&kint=8&kfloat=4&colors=1", testSource)
	if code != http.StatusOK {
		t.Fatalf("legacy form: status %d: %s", code, legacy)
	}
	kint, kfloat := 8, 4
	code, jsonBody, cache := postJSON(t, ts, "/v1/alloc", &AllocRequest{
		Source: testSource, Heuristic: "briggs", KInt: &kint, KFloat: &kfloat, Colors: true,
	})
	if code != http.StatusOK {
		t.Fatalf("JSON form: status %d: %s", code, jsonBody)
	}
	if !bytes.Equal(legacy, jsonBody) {
		t.Fatalf("forms disagree:\nlegacy: %s\njson:   %s", legacy, jsonBody)
	}
	if cache != "hit" {
		t.Fatalf("JSON form after identical legacy form: X-Cache %q, want hit", cache)
	}

	// The graph path has the same parity.
	code, legacy = postAlloc(t, ts, "/v1/alloc?input=ig&kint=2", testGraph)
	if code != http.StatusOK {
		t.Fatalf("legacy graph: status %d: %s", code, legacy)
	}
	k2 := 2
	code, jsonBody, _ = postJSON(t, ts, "/v1/alloc", &AllocRequest{Source: testGraph, Input: "ig", KInt: &k2})
	if code != http.StatusOK {
		t.Fatalf("JSON graph: status %d: %s", code, jsonBody)
	}
	if !bytes.Equal(legacy, jsonBody) {
		t.Fatalf("graph forms disagree:\nlegacy: %s\njson:   %s", legacy, jsonBody)
	}
}

// TestV1ErrorEnvelopeCodes locks the JSON-form failure codes.
func TestV1ErrorEnvelopeCodes(t *testing.T) {
	_, ts := newTestServer(t)
	zero := 0
	cases := []struct {
		name     string
		body     string
		wantCode string
	}{
		{"malformed JSON", `{"source": `, "bad_body"},
		{"unknown field", `{"source": "X", "bogus": 1}`, "bad_body"},
		{"trailing garbage", `{"source": "X"} extra`, "bad_body"},
		{"empty source", `{}`, "empty_body"},
		{"portfolio on graph", fmt.Sprintf(`{"source": %q, "input": "ig", "portfolio": "all"}`, testGraph), "bad_request"},
		{"pcolor on source", fmt.Sprintf(`{"source": %q, "heuristic": "pcolor"}`, testSource), "bad_heuristic"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/alloc", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
		}
		if e := errorEnvelope(t, data); e.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q (%s)", tc.name, e.Code, tc.wantCode, data)
		}
	}
	// Typed option errors surface with their own codes in the JSON
	// form too.
	code, data, _ := postJSON(t, ts, "/v1/alloc", &AllocRequest{Source: testSource, KInt: &zero})
	if code != http.StatusBadRequest {
		t.Fatalf("kint=0: status %d", code)
	}
	if e := errorEnvelope(t, data); e.Code != "bad_k" {
		t.Fatalf("kint=0: code %q, want bad_k", e.Code)
	}
}

// TestV1CacheHitByteIdentical is the acceptance witness: a repeated
// identical POST is served from the cache (X-Cache hit, the hit
// counter moves in /metrics) and the body is byte-identical to the
// cold miss.
func TestV1CacheHitByteIdentical(t *testing.T) {
	_, ts := newTestServer(t)
	code, cold, cache := postJSON(t, ts, "/v1/alloc", &AllocRequest{Source: testSource})
	if code != http.StatusOK || cache != "miss" {
		t.Fatalf("cold: status %d, X-Cache %q", code, cache)
	}
	code, warm, cache := postJSON(t, ts, "/v1/alloc", &AllocRequest{Source: testSource})
	if code != http.StatusOK || cache != "hit" {
		t.Fatalf("warm: status %d, X-Cache %q", code, cache)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("hit not byte-identical:\ncold: %s\nwarm: %s", cold, warm)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"regalloc_cache_hits_total 1",
		"regalloc_cache_misses_total 1",
		"regalloc_cache_hit_duration_seconds_count 1",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestV1CacheNormalizesSource goes one step past byte-equality of
// the request: two sources that differ only in comments and
// formatting digest to the same canonical IR, so the second is a hit.
func TestV1CacheNormalizesSource(t *testing.T) {
	_, ts := newTestServer(t)
	commented := strings.Replace(testSource, "      RETURN",
		"C     A COMMENT THE LEXER DROPS\n      RETURN", 1)
	if commented == testSource {
		t.Fatal("fixture edit did not apply")
	}
	code, cold, cache := postJSON(t, ts, "/v1/alloc", &AllocRequest{Source: testSource})
	if code != http.StatusOK || cache != "miss" {
		t.Fatalf("cold: status %d, X-Cache %q", code, cache)
	}
	code, warm, cache := postJSON(t, ts, "/v1/alloc", &AllocRequest{Source: commented})
	if code != http.StatusOK {
		t.Fatalf("commented: status %d: %s", code, warm)
	}
	if cache != "hit" {
		t.Fatalf("comment-only variant: X-Cache %q, want hit", cache)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("normalized variant not byte-identical")
	}
}

// TestV1NoCacheBypass: nocache requests neither read nor warm the
// cache.
func TestV1NoCacheBypass(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 2; i++ {
		_, _, cache := postJSON(t, ts, "/v1/alloc", &AllocRequest{Source: testSource, NoCache: true})
		if cache != "miss" {
			t.Fatalf("nocache post %d: X-Cache %q, want miss", i, cache)
		}
	}
}

// TestV1SingleflightCollapse: N concurrent identical POSTs run one
// allocation. The witness is the cache counters: exactly one miss
// (the flight leader), every other request a hit or shared.
func TestV1SingleflightCollapse(t *testing.T) {
	s, ts := newTestServer(t)
	const n = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, data, _ := postJSON(t, ts, "/v1/alloc", &AllocRequest{Source: testSource, Colors: true})
			if code != http.StatusOK {
				t.Errorf("post %d: status %d: %s", i, code, data)
			}
			bodies[i] = data
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	st := s.cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (one allocation for %d requests); stats %+v", st.Misses, n, st)
	}
	if st.Hits+st.Shared != n-1 {
		t.Fatalf("hits+shared = %d, want %d; stats %+v", st.Hits+st.Shared, n-1, st)
	}
}

// sendTraced POSTs body with a traceparent naming traceID and returns
// the status, the reply and the X-Cache header.
func sendTraced(t *testing.T, ts *httptest.Server, path, contentType string, body []byte, traceID string) (int, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("traceparent", "00-"+traceID+"-b7ad6b7169203331-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get("X-Cache")
}

// requireMissThenRawHit sends one request twice: the first must miss,
// and the second must be a raw hit with the first reply's exact
// bytes. It returns the reply.
func requireMissThenRawHit(t *testing.T, ts *httptest.Server, name, path, contentType string, body []byte, traceBase int) []byte {
	t.Helper()
	var replies [2][]byte
	for i, want := range []string{"miss", "hit"} {
		traceID := fmt.Sprintf("%032x", traceBase+i)
		code, data, cache := sendTraced(t, ts, path, contentType, body, traceID)
		if code != http.StatusOK {
			t.Fatalf("%s, send %d: status %d: %s", name, i, code, data)
		}
		if cache != want {
			t.Fatalf("%s, send %d: X-Cache %q, want %s", name, i, cache, want)
		}
		replies[i] = data
		if want == "hit" {
			requireRawHit(t, ts, traceID)
		}
	}
	if !bytes.Equal(replies[0], replies[1]) {
		t.Fatalf("%s: the repeat's reply differs from the first:\nfirst:  %s\nrepeat: %s", name, replies[0], replies[1])
	}
	return replies[0]
}

// TestV1DifferentConfigsMiss: the options fingerprint keeps requests
// that differ in any result-relevant knob apart, under the canonical
// key and under the raw key alike. Each variant misses once, and its
// byte-identical repeat is a raw hit with the first reply's bytes.
func TestV1DifferentConfigsMiss(t *testing.T) {
	_, ts := newTestServer(t)
	k8, k4, passes, yes := 8, 4, 3, true
	reqs := []*AllocRequest{
		{Source: testSource},
		{Source: testSource, Heuristic: "chaitin"},
		{Source: testSource, KInt: &k8},
		{Source: testSource, KInt: &k8, KFloat: &k4},
		{Source: testSource, Colors: true},
		{Source: testSource, Metric: "cost"},
		{Source: testSource, Machine: "rtpc"},
		{Source: testSource, Conservative: &yes},
		{Source: testSource, Remat: &yes},
		{Source: testSource, Split: &yes},
		{Source: testSource, MaxPasses: &passes},
		{Source: testSource, Unit: "SAXPYISH"},
	}
	var chaitin []byte
	for i, r := range reqs {
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		reply := requireMissThenRawHit(t, ts, fmt.Sprintf("req %d", i), "/v1/alloc", "application/json", body, 0x100+2*i)
		if i == 1 {
			chaitin = reply
		}
	}

	// The legacy query form of a JSON request decodes to the same
	// request, so it shares the JSON form's raw key and its alias.
	const legacyTraceID = "000000000000000000000000000001ff"
	code, data, cache := sendTraced(t, ts, "/v1/alloc?heuristic=chaitin", "text/plain", []byte(testSource), legacyTraceID)
	if code != http.StatusOK || cache != "hit" {
		t.Fatalf("legacy form: status %d, X-Cache %q: %s", code, cache, data)
	}
	if !bytes.Equal(data, chaitin) {
		t.Fatalf("legacy form's reply differs from the JSON form's:\nlegacy: %s\njson:   %s", data, chaitin)
	}
	requireRawHit(t, ts, legacyTraceID)
}

// TestV1RawKeyOnlyAfterSuccess: a request that fails gets no raw
// alias, so its repeat takes the canonical path again and fails the
// same way, and neither counts as a hit.
func TestV1RawKeyOnlyAfterSuccess(t *testing.T) {
	s, ts := newTestServer(t)
	for i, tc := range []struct {
		path, body, code string
		step             string // the canonical-path span the repeat must have
	}{
		{"/v1/alloc?unit=MISSING", testSource, "unknown_unit", "compile"},
		{"/v1/alloc?input=ig&heuristic=ssa&kint=2", testGraph, "bad_heuristic", "cachekey"},
	} {
		for j := 0; j < 2; j++ {
			traceID := fmt.Sprintf("%032x", 0x200+2*i+j)
			status, data, _ := sendTraced(t, ts, tc.path, "text/plain", []byte(tc.body), traceID)
			if status != http.StatusBadRequest {
				t.Fatalf("%s, send %d: status %d: %s", tc.path, j, status, data)
			}
			if e := errorEnvelope(t, data); e.Code != tc.code {
				t.Fatalf("%s, send %d: code %q, want %s", tc.path, j, e.Code, tc.code)
			}
			rec := findRecord(debugRequests(t, ts), traceID)
			if rec == nil || len(spansNamed(rec, tc.step)) != 1 {
				t.Fatalf("%s, send %d: want a record with one %s span", tc.path, j, tc.step)
			}
		}
	}
	if st := s.cache.Stats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("failed requests left cache state: %+v", st)
	}
}

// TestBatchArray drives the JSON-array form: independent per-item
// status, one bad item failing alone, and cache reuse across items.
func TestBatchArray(t *testing.T) {
	_, ts := newTestServer(t)
	items := []*AllocRequest{
		{Source: testSource},
		{Source: "NOT FORTRAN (("},
		{Source: testGraph},
		{Source: testSource}, // identical to item 0: a hit
		{Source: testSource, Portfolio: "all"},
		{Source: testSource, Heuristic: "pcolor"}, // graph-only engine: rejected, not a hit on item 0
	}
	code, data, _ := postJSON(t, ts, "/v1/alloc/batch", items)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	var resp batchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	if resp.OK != 3 || resp.Failed != 3 || len(resp.Items) != 6 {
		t.Fatalf("ok=%d failed=%d items=%d, want 3/3/6\n%s", resp.OK, resp.Failed, len(resp.Items), data)
	}
	wantStatus := []int{200, 400, 200, 200, 400, 400}
	wantCache := []string{"miss", "", "miss", "hit", "", ""}
	for i, it := range resp.Items {
		if it.Index != i || it.Status != wantStatus[i] {
			t.Errorf("item %d: index=%d status=%d, want status %d", i, it.Index, it.Status, wantStatus[i])
		}
		if it.Cache != wantCache[i] {
			t.Errorf("item %d: cache %q, want %q", i, it.Cache, wantCache[i])
		}
	}
	if resp.Items[1].Error == nil || resp.Items[1].Error.Code != "compile_failed" {
		t.Errorf("item 1 error = %+v, want compile_failed", resp.Items[1].Error)
	}
	if resp.Items[4].Error == nil || resp.Items[4].Error.Code != "bad_request" {
		t.Errorf("item 4 error = %+v, want bad_request (portfolio rejected in batches)", resp.Items[4].Error)
	}
	if resp.Items[5].Error == nil || resp.Items[5].Error.Code != "bad_heuristic" {
		t.Errorf("item 5 error = %+v, want bad_heuristic (pcolor on a program)", resp.Items[5].Error)
	}
	// Item results are full single-request bodies.
	var u allocResponse
	if err := json.Unmarshal(resp.Items[0].Result, &u); err != nil || len(u.Units) != 1 || u.Units[0].Unit != "SAXPYISH" {
		t.Fatalf("item 0 result: %v\n%s", err, resp.Items[0].Result)
	}
	var g graphResponse
	if err := json.Unmarshal(resp.Items[2].Result, &g); err != nil || g.Nodes != 4 {
		t.Fatalf("item 2 result: %v\n%s", err, resp.Items[2].Result)
	}
}

// TestBatchNDJSON drives the streaming form: NDJSON in, NDJSON out,
// one result line per item.
func TestBatchNDJSON(t *testing.T) {
	_, ts := newTestServer(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.Encode(&AllocRequest{Source: testSource})
	enc.Encode(&AllocRequest{Source: "BROKEN"})
	enc.Encode(&AllocRequest{Source: testGraph, Input: "ig"})
	resp, err := http.Post(ts.URL+"/v1/alloc/batch", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var items []batchItem
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var it batchItem
		if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
			t.Fatalf("line not a batch item: %v\n%s", err, sc.Text())
		}
		items = append(items, it)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("items = %d, want 3", len(items))
	}
	for i, wantStatus := range []int{200, 400, 200} {
		if items[i].Index != i || items[i].Status != wantStatus {
			t.Errorf("item %d: index=%d status=%d, want status %d", i, items[i].Index, items[i].Status, wantStatus)
		}
	}
}

// batchRecorder is a ResponseWriter for driving handleBatch directly:
// it counts body writes, can fail them (a client that hung up), and
// can run a hook after each write (to cancel the request mid-stream).
type batchRecorder struct {
	header  http.Header
	writes  int
	err     error
	onWrite func()
}

func (w *batchRecorder) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *batchRecorder) WriteHeader(int) {}

func (w *batchRecorder) Write(p []byte) (int, error) {
	w.writes++
	if w.onWrite != nil {
		w.onWrite()
	}
	if w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

func ndjsonBatchBody(t *testing.T, n int) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		if err := enc.Encode(&AllocRequest{Source: testGraph, Input: "ig"}); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

// TestBatchNDJSONStopsOnWriteError: once a reply line fails to write,
// the stream loop must stop instead of running every remaining item
// through the allocator for a client that already hung up.
func TestBatchNDJSONStopsOnWriteError(t *testing.T) {
	s := newServer(4)
	w := &batchRecorder{err: errors.New("broken pipe")}
	r := httptest.NewRequest(http.MethodPost, "/v1/alloc/batch", ndjsonBatchBody(t, 8))
	s.handleBatch(w, r)
	if w.writes != 1 {
		t.Fatalf("handler attempted %d writes after the first failed, want 1", w.writes)
	}
}

// TestBatchNDJSONStopsOnCancel: request-context cancellation between
// reply lines ends the stream.
func TestBatchNDJSONStopsOnCancel(t *testing.T) {
	s := newServer(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &batchRecorder{onWrite: cancel}
	r := httptest.NewRequest(http.MethodPost, "/v1/alloc/batch", ndjsonBatchBody(t, 8)).WithContext(ctx)
	s.handleBatch(w, r)
	if w.writes != 1 {
		t.Fatalf("handler wrote %d lines after cancellation on the first, want 1", w.writes)
	}
}

// TestBatchErrors locks the batch-level failures (which, unlike item
// failures, fail the whole request).
func TestBatchErrors(t *testing.T) {
	_, ts := newTestServer(t)
	big := make([]*AllocRequest, maxBatchItems+1)
	for i := range big {
		big[i] = &AllocRequest{Source: testGraph}
	}
	code, data, _ := postJSON(t, ts, "/v1/alloc/batch", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d: %s", code, data)
	}
	if e := errorEnvelope(t, data); e.Code != "batch_too_large" {
		t.Fatalf("oversized batch: code %q", e.Code)
	}
	for name, body := range map[string]string{
		"empty body":   "",
		"empty array":  "[]",
		"malformed":    "[{]",
		"broken line":  `{"source": "X"}` + "\n{broken",
		"not requests": `[42]`,
	} {
		resp, err := http.Post(ts.URL+"/v1/alloc/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		// "not requests" fails per-item (the array itself is valid);
		// everything else fails the batch.
		if name == "not requests" {
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d, want 200 with a failed item (%s)", name, resp.StatusCode, data)
			}
			var br batchResponse
			if err := json.Unmarshal(data, &br); err != nil || br.Failed != 1 {
				t.Errorf("%s: %v %s", name, err, data)
			}
			continue
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, data)
		}
	}
}

// TestAllocAliasRemoved: the retired /alloc alias is not routed, and
// /v1/alloc carries no deprecation marker.
func TestAllocAliasRemoved(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/alloc", "text/plain", strings.NewReader(testGraph))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /alloc: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/alloc", "text/plain", strings.NewReader(testGraph))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/alloc: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Deprecation") != "" {
		t.Error("/v1/alloc carries a Deprecation header")
	}
}

// TestV1SSAHeuristic: the SSA-form chordal allocator is reachable
// through the service with heuristic=ssa on source payloads, and a
// bare interference graph — which carries no dominance order for the
// greedy colorer — is rejected with the typed heuristic error.
func TestV1SSAHeuristic(t *testing.T) {
	_, ts := newTestServer(t)
	code, data := postAlloc(t, ts, "/v1/alloc?heuristic=ssa&kint=8&kfloat=4&colors=1", testSource)
	if code != http.StatusOK {
		t.Fatalf("source + ssa: status %d: %s", code, data)
	}
	var resp allocResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	if resp.Input != "src" || len(resp.Units) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	u := resp.Units[0]
	if u.Unit != "SAXPYISH" || u.LiveRanges == 0 || len(u.Colors) == 0 {
		t.Fatalf("unit = %+v", u)
	}

	// The JSON form resolves to the same canonical request: byte
	// parity plus a cache hit, like the briggs case in
	// TestV1JSONQueryParity.
	kint, kfloat := 8, 4
	jcode, jsonBody, cache := postJSON(t, ts, "/v1/alloc", &AllocRequest{
		Source: testSource, Heuristic: "ssa", KInt: &kint, KFloat: &kfloat, Colors: true,
	})
	if jcode != http.StatusOK {
		t.Fatalf("JSON form: status %d: %s", jcode, jsonBody)
	}
	if !bytes.Equal(data, jsonBody) {
		t.Fatalf("forms disagree:\nlegacy: %s\njson:   %s", data, jsonBody)
	}
	if cache != "hit" {
		t.Fatalf("X-Cache %q, want hit", cache)
	}

	code, data = postAlloc(t, ts, "/v1/alloc?input=ig&heuristic=ssa&kint=2", testGraph)
	if code != http.StatusBadRequest {
		t.Fatalf("graph + ssa: status %d, want 400: %s", code, data)
	}
	if e := errorEnvelope(t, data); e.Code != "bad_heuristic" {
		t.Fatalf("graph + ssa: code %q, want bad_heuristic (%s)", e.Code, data)
	}
}

// TestV1IRCHeuristic: the third allocator family over /v1 —
// heuristic=irc allocates source programs, and a bad heuristic's
// error detail enumerates the accepted spellings, irc included.
func TestV1IRCHeuristic(t *testing.T) {
	_, ts := newTestServer(t)
	code, data := postAlloc(t, ts, "/v1/alloc?heuristic=irc&kint=8&kfloat=4&colors=1", testSource)
	if code != http.StatusOK {
		t.Fatalf("source + irc: status %d: %s", code, data)
	}
	var resp allocResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	if resp.Input != "src" || len(resp.Units) != 1 || resp.Units[0].Unit != "SAXPYISH" {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Machine != nil {
		t.Fatalf("no machine requested, response echoes %+v", resp.Machine)
	}

	code, data = postAlloc(t, ts, "/v1/alloc?heuristic=bogus", testSource)
	if code != http.StatusBadRequest {
		t.Fatalf("bogus heuristic: status %d, want 400: %s", code, data)
	}
	e := errorEnvelope(t, data)
	if e.Code != "bad_heuristic" {
		t.Fatalf("code %q, want bad_heuristic (%s)", e.Code, data)
	}
	for _, name := range []string{"chaitin", "briggs", "mb", "ssa", "irc"} {
		if !strings.Contains(e.Detail, name) {
			t.Errorf("error detail %q does not list %q", e.Detail, name)
		}
	}

	code, data = postAlloc(t, ts, "/v1/alloc?input=ig&heuristic=irc&kint=2", testGraph)
	if code != http.StatusBadRequest {
		t.Fatalf("graph + irc: status %d, want 400: %s", code, data)
	}
	if e := errorEnvelope(t, data); e.Code != "bad_heuristic" {
		t.Fatalf("graph + irc: code %q, want bad_heuristic (%s)", e.Code, data)
	}
}

// TestV1MachineModel: machine=rtpc constrains the allocation and the
// resolved register-file model — per-class K, caller-saved split,
// convention bindings — is echoed in the reply, resized to the
// request's budgets.
func TestV1MachineModel(t *testing.T) {
	_, ts := newTestServer(t)
	for _, h := range []string{"briggs", "irc"} {
		code, data := postAlloc(t, ts, "/v1/alloc?heuristic="+h+"&machine=rtpc&kint=12&kfloat=8&colors=1", testSource)
		if code != http.StatusOK {
			t.Fatalf("%s + machine: status %d: %s", h, code, data)
		}
		var resp allocResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, data)
		}
		m := resp.Machine
		if m == nil || len(m.Classes) != 2 {
			t.Fatalf("%s: machine echo = %+v", h, m)
		}
		gpr, fpr := m.Classes[0], m.Classes[1]
		if gpr.K != 12 || gpr.CallerSaved != 6 || len(gpr.ArgRegs) != 4 || gpr.RetReg != 0 {
			t.Fatalf("%s: gpr echo = %+v", h, gpr)
		}
		if fpr.K != 8 || fpr.CallerSaved != 4 || len(fpr.ArgRegs) != 4 || fpr.RetReg != 0 {
			t.Fatalf("%s: fpr echo = %+v", h, fpr)
		}
	}

	// Unknown model names and graph payloads both fail typed.
	code, data := postAlloc(t, ts, "/v1/alloc?machine=vax", testSource)
	if code != http.StatusBadRequest {
		t.Fatalf("bad machine: status %d: %s", code, data)
	}
	if e := errorEnvelope(t, data); e.Code != "bad_machine" {
		t.Fatalf("bad machine: code %q (%s)", e.Code, data)
	}
	code, data = postAlloc(t, ts, "/v1/alloc?input=ig&machine=rtpc&kint=2", testGraph)
	if code != http.StatusBadRequest {
		t.Fatalf("graph + machine: status %d: %s", code, data)
	}
	if e := errorEnvelope(t, data); e.Code != "bad_machine" {
		t.Fatalf("graph + machine: code %q (%s)", e.Code, data)
	}
}
