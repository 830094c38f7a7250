// batch.go is POST /v1/alloc/batch: many AllocRequests in one HTTP
// request, admitted once. The payload is either a JSON array of
// request objects (replied to as one JSON document) or an NDJSON
// stream of them (replied to as an NDJSON stream, one result line per
// item, flushed as it completes). Items fail independently: each row
// carries its own status, so one bad unit never poisons the batch.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"regalloc/internal/reqtrace"
)

// maxBatchItems caps one batch. The body size cap already bounds the
// total payload; this bounds the number of allocations a single
// admission slot can amortize.
const maxBatchItems = 256

// batchItem is one row of the batch reply.
type batchItem struct {
	Index  int    `json:"index"`
	Status int    `json:"status"`
	Cache  string `json:"cache,omitempty"` // miss, hit, or shared
	// Result is the full single-request response body on success.
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the same envelope payload a single request's non-2xx
	// reply carries.
	Error *apiError `json:"error,omitempty"`
}

// batchResponse is the JSON-array reply form.
type batchResponse struct {
	Items  []batchItem `json:"items"`
	OK     int         `json:"ok"`
	Failed int         `json:"failed"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, failf(http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST a JSON array or NDJSON stream of allocation requests"))
		return
	}
	rt, root := reqtrace.FromContext(r.Context())
	td := time.Now()
	items, ndjson, fail := readBatchItems(w, r)
	recordStep(rt, root, "decode", td, fail)
	if fail != nil {
		writeError(w, fail)
		return
	}
	if len(items) > maxBatchItems {
		writeError(w, failf(http.StatusRequestEntityTooLarge, codeBatchTooLarge, "%d items exceeds the %d-item batch cap", len(items), maxBatchItems))
		return
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()

	// One admission slot covers the whole batch — the point of
	// batching is to pay queueing once. Each source item still fans
	// its units across the library's bounded worker pool; the slot
	// bounds how many batches run at once, not how wide one batch
	// runs.
	release, fail := s.admit(ctx)
	if fail != nil {
		writeError(w, fail)
		return
	}
	defer release()

	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		for i, raw := range items {
			// A client that hangs up mid-stream turns every further
			// Encode into a wasted allocation: the write fails, but the
			// loop would still run the remaining rows through the
			// allocator at full cost. Stop on the first write error or
			// on request-context cancellation instead of burning the
			// admission slot on results nobody will read.
			if ctx.Err() != nil {
				return
			}
			if err := enc.Encode(s.batchOne(ctx, i, raw)); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		return
	}

	resp := batchResponse{Items: make([]batchItem, 0, len(items))}
	for i, raw := range items {
		item := s.batchOne(ctx, i, raw)
		if item.Error != nil {
			resp.Failed++
		} else {
			resp.OK++
		}
		resp.Items = append(resp.Items, item)
	}
	writeJSON(w, resp)
}

// batchOne runs one batch row end to end: decode, validate, and
// serve through the result cache. Failures land in the row, never in
// the batch's own status.
func (s *server) batchOne(ctx context.Context, index int, raw json.RawMessage) batchItem {
	item := batchItem{Index: index}
	rt, parent := reqtrace.FromContext(ctx)
	td := time.Now()
	req, fail := decodeBatchItem(raw)
	recordStep(rt, parent, "decode", td, fail)
	if fail != nil {
		return item.fail(fail)
	}
	// The batch holds exactly one admission slot, and a portfolio
	// race needs to re-admit each candidate individually — under the
	// slot the batch already owns that deadlocks at -max-inflight=1.
	// Races stay a single-request feature.
	if req.portfolioSpec() != "" {
		return item.fail(failf(http.StatusBadRequest, codeBadRequest, "portfolio races are not available in batches; POST /v1/alloc instead"))
	}
	kind, fail := req.inputKind()
	if fail != nil {
		return item.fail(fail)
	}
	body, out, fail := s.allocCached(ctx, req, kind)
	if fail != nil {
		return item.fail(fail)
	}
	item.Status = http.StatusOK
	item.Cache = out.String()
	item.Result = json.RawMessage(body)
	return item
}

func (it batchItem) fail(e *apiError) batchItem {
	it.Status = e.Status
	it.Error = e
	return it
}

// decodeBatchItem decodes one batch row and rejects an empty payload.
func decodeBatchItem(raw json.RawMessage) (*AllocRequest, *apiError) {
	req := &AllocRequest{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, failErr(http.StatusBadRequest, codeBadBody, "decoding batch item", err)
	}
	if strings.TrimSpace(req.Source) == "" {
		return nil, failf(http.StatusBadRequest, codeEmptyBody, "empty source")
	}
	return req, nil
}

// readBatchItems reads the batch body and splits it into raw per-item
// messages, reporting whether the NDJSON form was used (the reply
// mirrors the request's form).
func readBatchItems(w http.ResponseWriter, r *http.Request) ([]json.RawMessage, bool, *apiError) {
	body, fail := readBody(w, r)
	if fail != nil {
		return nil, false, fail
	}
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) == 0 {
		return nil, false, failf(http.StatusBadRequest, codeEmptyBody, "empty batch: POST a JSON array or NDJSON stream of allocation requests")
	}
	if trimmed[0] == '[' {
		var raw []json.RawMessage
		if err := json.Unmarshal(trimmed, &raw); err != nil {
			return nil, false, failErr(http.StatusBadRequest, codeBadBody, "decoding batch array", err)
		}
		if len(raw) == 0 {
			return nil, false, failf(http.StatusBadRequest, codeEmptyBody, "empty batch array")
		}
		return raw, false, nil
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	var raw []json.RawMessage
	for dec.More() {
		var m json.RawMessage
		if err := dec.Decode(&m); err != nil {
			return nil, true, failErr(http.StatusBadRequest, codeBadBody, "decoding NDJSON batch stream", err)
		}
		raw = append(raw, m)
	}
	if len(raw) == 0 {
		return nil, true, failf(http.StatusBadRequest, codeEmptyBody, "empty NDJSON batch stream")
	}
	return raw, true, nil
}
