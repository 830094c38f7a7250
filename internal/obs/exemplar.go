package obs

import (
	"sync"
	"time"
)

// Exemplar is one trace-linked sample attached to a histogram bucket:
// the observed value in seconds, the trace that produced it, and when
// it was taken (unix seconds). OpenMetrics renders it after the
// bucket count as `# {trace_id="..."} value timestamp`.
type Exemplar struct {
	TraceID string
	Value   float64 // seconds
	TS      float64 // unix seconds
}

// ExemplarHistogram is a LatencyHistogram that additionally keeps the
// most recent trace-linked exemplar per bucket, turning the service's
// latency histogram into an entry point for trace lookup: a scrape
// shows which trace last landed in the p99 bucket, and /debug/requests
// has the span tree for it. Unlike LatencyHistogram it carries its
// own lock — it is written on the request path and read by the
// scrape handler concurrently.
type ExemplarHistogram struct {
	mu        sync.Mutex
	hist      LatencyHistogram
	exemplars [NumLatencyBuckets + 1]Exemplar
}

// Observe counts one duration and, when traceID is non-empty, records
// it as the bucket's exemplar (last writer wins — recency is the
// useful property for debugging).
func (h *ExemplarHistogram) Observe(d time.Duration, traceID string, at time.Time) {
	h.mu.Lock()
	idx := h.hist.Observe(d)
	if traceID != "" {
		h.exemplars[idx] = Exemplar{
			TraceID: traceID,
			Value:   d.Seconds(),
			TS:      float64(at.UnixNano()) / 1e9,
		}
	}
	h.mu.Unlock()
}

// Snapshot returns a consistent copy of the counts and the per-bucket
// exemplars (zero-valued entries mean the bucket has none yet).
func (h *ExemplarHistogram) Snapshot() (LatencyHistogram, [NumLatencyBuckets + 1]Exemplar) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hist, h.exemplars
}
