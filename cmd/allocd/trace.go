package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"regalloc/internal/fsutil"
	"regalloc/internal/reqtrace"
)

// Flight-recorder bounds: enough residents to hold a load test's slow
// tail and error burst, small enough that /debug/requests stays a
// quick read.
const (
	recorderSlowCap = 64
	recorderErrCap  = 64
)

// traced wraps an allocation handler with request-scoped tracing:
// parse the client's W3C traceparent (minting a fresh trace when the
// header is absent or malformed, continuing the trace with a child
// span ID when it is valid), thread the trace through the request
// context, and on completion feed the flight recorder, the
// exemplar-linked latency histogram, and the access log. The
// response carries a traceparent header naming the server's span so
// the caller can correlate.
func (s *server) traced(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sc, err := reqtrace.Parse(r.Header.Get("traceparent"))
		if err != nil {
			sc = reqtrace.Mint()
		} else {
			sc = sc.Child()
		}
		rt := reqtrace.NewTrace(sc)
		root, endRoot := rt.StartSpan(0, "request")
		rt.Annotate("path", r.URL.Path)
		ctx := reqtrace.ContextWith(r.Context(), rt, root)
		w.Header().Set("traceparent", sc.Header())
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}

		start := rt.Start()
		h(sw, r.WithContext(ctx))
		dur := time.Since(start)
		endRoot(reqtrace.Attr{Key: "status", Value: strconv.Itoa(sw.status)})

		spans, annots := rt.Snapshot()
		rec := reqtrace.RequestRecord{
			TraceID: sc.TraceID.String(),
			Start:   start,
			DurNS:   dur.Nanoseconds(),
			Status:  sw.status,
			Error:   sw.status >= 400,
			Annots:  annots,
			Spans:   spans,
		}
		s.recorder.Add(rec)
		s.reqLat.Observe(dur, rec.TraceID, start)
		s.access.log(&rec, r.Method)
	}
}

// recordStep records a span called name under parent, from t0 to
// now, with the failure as its error attribute when there was one.
func recordStep(rt *reqtrace.Trace, parent uint32, name string, t0 time.Time, fail *apiError) {
	if fail != nil {
		rt.Record(parent, name, t0, time.Since(t0), reqtrace.Attr{Key: "error", Value: fail.Error()})
		return
	}
	rt.Record(parent, name, t0, time.Since(t0))
}

// statusWriter captures the status code a handler writes; an
// unwritten header means the implicit 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// handleDebugRequests is GET /debug/requests: the flight recorder's
// retained span trees — errors newest first, then the slowest
// successes — as indented JSON. This is the trace store a latency
// exemplar or an access-log line points into.
func (s *server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, failf(http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET the retained request traces"))
		return
	}
	writeJSON(w, struct {
		Requests []reqtrace.RequestRecord `json:"requests"`
	}{s.recorder.Snapshot()})
}

// accessEntry is one structured access-log line: identity and outcome
// on the first level, allocation annotations when the request ran
// one. The trace_id field joins the line to /debug/requests and to
// the exemplar on the latency histogram.
type accessEntry struct {
	Time           string `json:"time"`
	TraceID        string `json:"trace_id"`
	Method         string `json:"method"`
	Path           string `json:"path"`
	Status         int    `json:"status"`
	DurNS          int64  `json:"dur_ns"`
	Unit           string `json:"unit,omitempty"`
	Heuristic      string `json:"heuristic,omitempty"`
	Cache          string `json:"cache,omitempty"`
	SpillCostMilli int64  `json:"spill_cost_milli,omitempty"`
	Error          bool   `json:"error,omitempty"`
}

// accessLog writes one JSON line per completed allocation request
// through a buffered writer. All methods are nil-safe — a server
// without -access-log carries a nil log and pays one pointer check
// per request. Close flushes and fsyncs, so a drained shutdown's last
// line is durable before the process exits.
type accessLog struct {
	mu sync.Mutex
	bw *bufio.Writer
	f  *os.File
}

func newAccessLog(path string) (*accessLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &accessLog{bw: bufio.NewWriter(f), f: f}, nil
}

func (l *accessLog) log(rec *reqtrace.RequestRecord, method string) {
	if l == nil {
		return
	}
	e := accessEntry{
		Time:      rec.Start.UTC().Format(time.RFC3339Nano),
		TraceID:   rec.TraceID,
		Method:    method,
		Path:      rec.Annotation("path"),
		Status:    rec.Status,
		DurNS:     rec.DurNS,
		Unit:      rec.Annotation("unit"),
		Heuristic: rec.Annotation("heuristic"),
		Cache:     rec.Annotation("cache"),
		Error:     rec.Error,
	}
	if v := rec.Annotation("spill_cost_milli"); v != "" {
		e.SpillCostMilli, _ = strconv.ParseInt(v, 10, 64)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	l.mu.Lock()
	l.bw.Write(line)
	l.bw.WriteByte('\n')
	l.mu.Unlock()
}

// Close flushes buffered lines and syncs the file to disk before
// closing it — the drain path calls this after Shutdown returns, so
// the line for the last in-flight request is on disk when the
// process exits.
func (l *accessLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.bw.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return fsutil.SyncClose(l.f)
}
