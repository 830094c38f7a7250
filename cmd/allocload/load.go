// load.go is the driver: closed- or open-loop request generation
// against /v1/alloc, every request's latency kept as a raw sample,
// client-side cache accounting from the X-Cache reply
// header, and per-request W3C trace identities — every request
// carries a minted traceparent, and the trace IDs of the slowest and
// errored requests are kept so the report (and a failing SLO gate)
// can point straight into allocd's flight recorder.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"regalloc/internal/graphgen"
	"regalloc/internal/reqtrace"
)

// How many trace IDs the collector retains: enough to hand an
// operator the whole pathological tail, few enough that the report
// and the gate's failure message stay readable.
const (
	maxSlowTraces  = 8
	maxErrorTraces = 8
)

// slowTrace is one retained (trace ID, duration) pair.
type slowTrace struct {
	TraceID string
	DurNS   int64
}

type loadConfig struct {
	Addr     string
	Duration time.Duration
	Conc     int
	Rate     float64 // requests/sec; 0 means closed loop
	Corpus   *corpus
	Seed     uint64
}

// collector aggregates results from all in-flight workers.
type collector struct {
	mu       sync.Mutex
	lat      []time.Duration // service replies only (any HTTP status)
	errLat   []time.Duration // transport failures (status 0)
	requests int64
	errors   int64
	statuses map[int]int64
	cache    map[string]int64 // X-Cache value -> count

	// slow holds the top-maxSlowTraces successfully answered requests
	// by duration (sorted slowest first); errTraces the trace IDs of
	// the first maxErrorTraces non-2xx replies. Transport failures
	// carry no trace ID — the server may never have seen the request,
	// so its ID would dangle in the flight recorder.
	slow      []slowTrace
	errTraces []string
}

func newCollector() *collector {
	return &collector{statuses: map[int]int64{}, cache: map[string]int64{}}
}

func (c *collector) observe(status int, xcache, traceID string, d time.Duration, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requests++
	if traceID != "" {
		if failed {
			if len(c.errTraces) < maxErrorTraces {
				c.errTraces = append(c.errTraces, traceID)
			}
		} else {
			c.noteSlow(traceID, d.Nanoseconds())
		}
	}
	if status == 0 {
		// Transport failure: the duration is the client's timeout or
		// connect path, not service latency. Folding a batch of
		// 30-second client timeouts into the same sample the SLO
		// gate reads would let a brief outage masquerade as a tail
		// regression (or, worse, mask one); they are tracked apart
		// and reported as error_latency.
		c.errLat = append(c.errLat, d)
	} else {
		c.lat = append(c.lat, d)
	}
	c.statuses[status]++
	if failed {
		c.errors++
	}
	if xcache != "" {
		c.cache[xcache]++
	}
}

// noteSlow inserts one successful request into the slowest-first list,
// keeping at most maxSlowTraces entries. Caller holds c.mu.
func (c *collector) noteSlow(traceID string, ns int64) {
	i := sort.Search(len(c.slow), func(i int) bool { return c.slow[i].DurNS < ns })
	if i >= maxSlowTraces {
		return
	}
	c.slow = append(c.slow, slowTrace{})
	copy(c.slow[i+1:], c.slow[i:])
	c.slow[i] = slowTrace{TraceID: traceID, DurNS: ns}
	if len(c.slow) > maxSlowTraces {
		c.slow = c.slow[:maxSlowTraces]
	}
}

// runLoad drives the configured load shape until the duration
// elapses and aggregates the results into the loadtest section.
func runLoad(cfg loadConfig) (*loadtestSection, error) {
	if len(cfg.Corpus.Items) == 0 {
		return nil, fmt.Errorf("empty corpus")
	}
	if cfg.Conc < 1 {
		cfg.Conc = 1
	}
	client := &http.Client{Timeout: 30 * time.Second}

	// Fail fast if the target isn't there: a typo'd -addr should be
	// one clear error, not -duration seconds of connection refusals
	// counted as 100%% error rate.
	resp, err := client.Get(cfg.Addr + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("target %s not reachable: %w", cfg.Addr, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	col := newCollector()
	deadline := time.Now().Add(cfg.Duration)
	mode := "closed"

	// Each worker walks the corpus from a different seeded offset so
	// concurrent workers do not march through it in lockstep (which
	// would turn every round into a singleflight pileup on one key and
	// starve the rest of the cache).
	rng := graphgen.NewRNG(cfg.Seed)
	offsets := make([]int, cfg.Conc)
	for i := range offsets {
		offsets[i] = rng.Intn(len(cfg.Corpus.Items))
	}

	if cfg.Rate > 0 {
		mode = "open"
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		var wg sync.WaitGroup
		// The worker pool bounds outstanding requests: a true open
		// loop with an unbounded queue would let a stalled server
		// accumulate goroutines without limit. Ticks that find no free
		// worker are counted as dropped (the queueing-delay signal an
		// open loop exists to expose).
		slots := make(chan struct{}, cfg.Conc*4)
		var dropped int64
		var droppedMu sync.Mutex
		// Pace off absolute fire times (start + tick*interval), not
		// sleep-after-work: sleeping the full interval after each
		// tick's bookkeeping adds that bookkeeping — plus the OS sleep
		// overshoot — to every gap, so the achieved rate drifts below
		// the requested one and the drift compounds over the run. An
		// absolute schedule self-corrects: a late tick fires at once
		// and the next target time is unchanged.
		start := time.Now()
		for tick := 0; ; tick++ {
			next := start.Add(time.Duration(tick) * interval)
			if next.After(deadline) {
				break
			}
			time.Sleep(time.Until(next))
			// Tick t belongs to virtual worker t%Conc, which walks the
			// corpus from its own seeded offset just like the closed
			// loop's workers. A single cursor from item 0 would replay
			// the corpus prefix in request order every run and turn the
			// cache study into a pileup on the first few keys.
			v := tick % cfg.Conc
			item := cfg.Corpus.Items[(offsets[v]+tick/cfg.Conc)%len(cfg.Corpus.Items)]
			select {
			case slots <- struct{}{}:
				wg.Add(1)
				go func(it corpusItem) {
					defer wg.Done()
					defer func() { <-slots }()
					fire(client, cfg.Addr, it, col)
				}(item)
			default:
				droppedMu.Lock()
				dropped++
				droppedMu.Unlock()
			}
		}
		wg.Wait()
		return finish(client, cfg, mode, col, dropped), nil
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := offsets[w]
			for time.Now().Before(deadline) {
				fire(client, cfg.Addr, cfg.Corpus.Items[i%len(cfg.Corpus.Items)], col)
				i++
			}
		}(w)
	}
	wg.Wait()
	return finish(client, cfg, mode, col, 0), nil
}

// finish summarizes the run, then pulls the span trees for the
// retained trace IDs back from the service's flight recorder.
func finish(client *http.Client, cfg loadConfig, mode string, col *collector, dropped int64) *loadtestSection {
	lt := summarize(cfg, mode, col, dropped)
	ids := append(append([]string{}, lt.SlowTraceIDs...), lt.ErrorTraceIDs...)
	lt.Traces = fetchTraces(client, cfg.Addr, ids)
	return lt
}

// fire sends one request and records its outcome. Any non-2xx or
// transport failure counts as an error: the corpus is all valid
// requests, so the service owns every failure. Every request is
// minted a W3C trace identity and carries it as a traceparent header;
// allocd continues that trace, so the IDs the collector retains for
// the slowest and errored requests look up full span trees in the
// service's flight recorder.
func fire(client *http.Client, addr string, item corpusItem, col *collector) {
	sc := reqtrace.Mint()
	req, err := http.NewRequest(http.MethodPost, addr+"/v1/alloc", bytes.NewReader(item.Body))
	if err != nil {
		col.observe(0, "", "", 0, true)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", sc.Header())
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		col.observe(0, "", "", time.Since(t0), true)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	col.observe(resp.StatusCode, resp.Header.Get("X-Cache"), sc.TraceID.String(), time.Since(t0),
		resp.StatusCode < 200 || resp.StatusCode > 299)
}

// fetchTraces asks the target's flight recorder (GET /debug/requests)
// for the records behind the retained trace IDs, slowest first.
// Best-effort: against an allocd predating the endpoint — or once the
// recorder has evicted a record — the summary list is simply shorter,
// and the IDs themselves still join the access log and the /metrics
// exemplars.
func fetchTraces(client *http.Client, addr string, ids []string) []traceSummary {
	if len(ids) == 0 {
		return nil
	}
	resp, err := client.Get(addr + "/debug/requests")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var body struct {
		Requests []reqtrace.RequestRecord `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	var out []traceSummary
	for _, rec := range body.Requests {
		if !want[rec.TraceID] {
			continue
		}
		out = append(out, traceSummary{
			TraceID:   rec.TraceID,
			DurNS:     rec.DurNS,
			Status:    rec.Status,
			Spans:     len(rec.Spans),
			Unit:      rec.Annotation("unit"),
			Heuristic: rec.Annotation("heuristic"),
			Cache:     rec.Annotation("cache"),
			Error:     rec.Error,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DurNS > out[j].DurNS })
	return out
}

func summarize(cfg loadConfig, mode string, col *collector, dropped int64) *loadtestSection {
	col.mu.Lock()
	defer col.mu.Unlock()
	lt := &loadtestSection{
		Target:      cfg.Addr,
		Mode:        mode,
		DurationNS:  cfg.Duration.Nanoseconds(),
		Concurrency: cfg.Conc,
		RateRPS:     cfg.Rate,
		Corpus: corpusSummary{
			Items:   len(cfg.Corpus.Items),
			Sources: cfg.Corpus.Sources,
			Graphs:  cfg.Corpus.Graphs,
			Fuzzed:  cfg.Corpus.Fuzzed,
		},
		Requests: col.requests,
		Errors:   col.errors,
		Dropped:  dropped,
		Latency:  quantilesOf(col.lat),
		Statuses: map[string]int64{},
		Cache:    cacheSummary{},
		Throughput: func() float64 {
			if cfg.Duration <= 0 {
				return 0
			}
			return float64(col.requests) / cfg.Duration.Seconds()
		}(),
	}
	if col.requests > 0 {
		lt.ErrorRate = float64(col.errors) / float64(col.requests)
	}
	if len(col.errLat) > 0 {
		q := quantilesOf(col.errLat)
		lt.ErrorLatency = &q
	}
	for code, n := range col.statuses {
		lt.Statuses[fmt.Sprintf("%d", code)] = n
	}
	lt.SlowTraceIDs = make([]string, 0, len(col.slow))
	for _, s := range col.slow {
		lt.SlowTraceIDs = append(lt.SlowTraceIDs, s.TraceID)
	}
	lt.ErrorTraceIDs = col.errTraces
	lt.Cache.Hits = col.cache["hit"]
	lt.Cache.Misses = col.cache["miss"]
	lt.Cache.Shared = col.cache["shared"]
	if served := lt.Cache.Hits + lt.Cache.Misses + lt.Cache.Shared; served > 0 {
		lt.Cache.HitRate = float64(lt.Cache.Hits+lt.Cache.Shared) / float64(served)
	}
	return lt
}

// sortedStatusCodes is used by tests to render deterministic output.
func sortedStatusCodes(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
