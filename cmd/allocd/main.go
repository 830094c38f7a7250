// Command allocd serves the register allocator over HTTP: a small
// production-shaped service wrapping the library, with the full
// export surface a fleet expects.
//
//	allocd -addr :8080
//
// Endpoints (see docs/API.md for the full contract):
//
//	POST /v1/alloc       allocate a mini-FORTRAN source or color a
//	                     .ig interference graph. Two request forms,
//	                     one parser: a JSON object ({"source": ...,
//	                     "heuristic": ..., "kint": ...}) or the legacy
//	                     form — the raw payload as the body with
//	                     same-named query parameters. The payload kind
//	                     is sniffed, or forced with input=src|ig.
//	                     Knobs mirror the library's Options:
//	                     heuristic, kint, kfloat, metric, coalesce,
//	                     conservative, remat, split, workers,
//	                     maxpasses; plus unit=NAME to pick one
//	                     routine, colors to include the assignment,
//	                     and for heuristic=pcolor the seed and workers
//	                     of the parallel engine. portfolio (a flag or
//	                     a comma-separated candidate list) races the
//	                     strategy portfolio per routine; pmode,
//	                     pbudget, and pseeds tune the race.
//	                     Identical requests are served from a
//	                     content-addressed result cache (singleflight:
//	                     concurrent identical requests run one
//	                     allocation); the X-Cache reply header says
//	                     miss, hit, or shared, and nocache opts a
//	                     request out. Non-2xx replies carry
//	                     {"error": {"code", "message", "detail"}}.
//	POST /v1/alloc/batch many allocation requests in one call,
//	                     admitted against -max-inflight once: a JSON
//	                     array of request objects, or an NDJSON
//	                     stream (replied to in kind, streaming). Each
//	                     item succeeds or fails independently.
//	GET  /metrics        Prometheus text exposition: the run
//	                     registry (spills, palettes, per-phase
//	                     latency histograms), live trace-counter
//	                     totals, result-cache counters
//	                     (regalloc_cache_{hits,misses,evictions}_total
//	                     and hit/fill latency histograms), and
//	                     service gauges.
//	GET  /healthz        liveness (always ok while the process runs).
//	GET  /readyz         readiness (503 once draining begins).
//	GET  /debug/requests the flight recorder: full span trees of the
//	                     slowest and every errored recent request,
//	                     looked up by the trace_id a response's
//	                     traceparent header, an access-log line, or a
//	                     /metrics exemplar carries.
//	GET  /debug/pprof/   the standard Go profiler endpoints.
//
// Tracing: allocation routes accept a W3C traceparent header and
// continue that trace (minting one otherwise); the response's
// traceparent names the server's span. With -access-log PATH the
// service writes one JSON line per allocation request (trace_id,
// unit, heuristic, cache outcome, status, duration, spill cost); the
// file is flushed and fsynced after the drain completes, so the last
// in-flight request's line survives the exit. See
// docs/OBSERVABILITY.md for the full story.
//
// Admission: -max-inflight bounds concurrently served allocations;
// excess requests queue. A queued request that hits -alloc-timeout
// while the service is healthy is answered 429 with Retry-After —
// the same request succeeds on a quieter instant — while drain and
// client cancellation answer 503.
//
// On SIGTERM or SIGINT the service stops advertising readiness,
// drains in-flight requests for -drain at most, then exits 0; a
// second signal aborts immediately.
//
// Example:
//
//	curl -sS -X POST --data-binary @examples/saxpyish.f \
//	  'localhost:8080/v1/alloc?heuristic=briggs&kint=8'
//	curl -sS localhost:8080/metrics | grep regalloc_cache_hits_total
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"regalloc/internal/rescache"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	drain := flag.Duration("drain", 10*time.Second, "max time to drain in-flight requests on shutdown")
	maxInflight := flag.Int("max-inflight", 2*runtime.GOMAXPROCS(0), "max concurrently served allocation requests (others queue)")
	allocTimeout := flag.Duration("alloc-timeout", 0, "per-request allocation deadline, queueing included (0 disables); expiry answers 429 while healthy, 503 draining")
	cacheEntries := flag.Int("cache-entries", defaultCacheEntries, "result-cache entry bound (0 unbounded, negative disables the cache)")
	cacheBytes := flag.Int64("cache-bytes", defaultCacheBytes, "result-cache byte bound (0 unbounded, negative disables the cache)")
	accessLogPath := flag.String("access-log", "", "write one JSON line per allocation request to this file (empty disables)")
	flag.Parse()

	s := newServer(*maxInflight)
	s.allocTimeout = *allocTimeout
	if *cacheEntries < 0 || *cacheBytes < 0 {
		s.cache = nil
	} else {
		s.cache = rescache.New(*cacheEntries, *cacheBytes)
	}
	if *accessLogPath != "" {
		al, err := newAccessLog(*accessLogPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "allocd: access log:", err)
			os.Exit(1)
		}
		s.access = al
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "allocd: listening on %s (max-inflight %d)\n", *addr, *maxInflight)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errc:
		// ListenAndServe only returns on failure to bind or a fatal
		// accept error; either way the service is dead.
		fmt.Fprintln(os.Stderr, "allocd:", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "allocd: %s: draining for up to %s\n", sig, *drain)
		s.beginShutdown()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		go func() {
			<-sigc
			fmt.Fprintln(os.Stderr, "allocd: second signal, aborting")
			cancel()
		}()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.access.Close()
			fmt.Fprintln(os.Stderr, "allocd: shutdown:", err)
			os.Exit(1)
		}
		// The drain is complete: every in-flight request has written
		// its access-log line, so flush and fsync before exiting.
		if err := s.access.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "allocd: access log close:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "allocd: drained, exiting")
	}
}
