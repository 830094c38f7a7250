// Command allocload drives a running allocd with a mixed corpus —
// the paper's workload programs, generated stress graphs, and fuzzed
// mini-FORTRAN subroutines — and reports latency percentiles, error
// rate, and cache hit rate as the `loadtest` section of a bench-json
// document (schema regalloc-bench/11).
//
// Every request carries a minted W3C traceparent header, so each one
// is a named trace in the target's telemetry. The report keeps the
// trace IDs of the slowest and errored requests (slow_trace_ids,
// error_trace_ids) and fetches their span trees from the target's
// flight recorder (GET /debug/requests) after the run; a failing SLO
// gate prints those IDs, so the evidence behind a tail regression is
// one lookup away rather than a re-run away.
//
//	allocd -addr :8080 &
//	allocload -addr http://localhost:8080 -duration 5s -conc 8 -out load.json
//
// Two load shapes:
//
//   - closed loop (default): -conc workers each keep exactly one
//     request in flight, so offered load adapts to service latency —
//     the right shape for throughput and saturation measurements.
//   - open loop (-rate R): requests start on a fixed R-per-second
//     schedule regardless of completions, the shape that exposes
//     queueing delay under a latency SLO (a closed loop politely
//     slows down with the server and hides it).
//
// The SLO gate: with -baseline FILE the run fails (exit 1) if its
// error rate exceeds -max-error-rate or its p99 exceeds the
// baseline's p99 by more than -max-p99-factor. CI keeps a checked-in
// baseline, so a PR that regresses tail latency fails the gate
// rather than landing quietly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"regalloc/internal/fsutil"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "base URL of the allocd instance to load")
	duration := flag.Duration("duration", 5*time.Second, "how long to drive load")
	conc := flag.Int("conc", 8, "closed-loop workers (each keeps one request in flight)")
	rate := flag.Float64("rate", 0, "open-loop request rate per second (0: closed loop)")
	seed := flag.Uint64("seed", 1, "corpus shuffle seed (same seed, same request sequence)")
	out := flag.String("out", "", "write the bench-json report here (default stdout)")
	baselinePath := flag.String("baseline", "", "baseline bench-json report to gate against")
	maxP99 := flag.Float64("max-p99-factor", 5, "fail if p99 exceeds baseline p99 by this factor")
	maxErrRate := flag.Float64("max-error-rate", 0, "fail if the error rate exceeds this fraction")
	flag.Parse()

	corpus, err := buildCorpus(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocload: corpus:", err)
		os.Exit(1)
	}
	lt, err := runLoad(loadConfig{
		Addr:     *addr,
		Duration: *duration,
		Conc:     *conc,
		Rate:     *rate,
		Corpus:   corpus,
		Seed:     *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocload:", err)
		os.Exit(1)
	}
	report := newReport(lt)

	var w *os.File = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "allocload:", err)
			os.Exit(1)
		}
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "allocload:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := fsutil.SyncClose(w); err != nil {
			fmt.Fprintln(os.Stderr, "allocload:", err)
			os.Exit(1)
		}
	}

	// The SLO gate runs after the report is safely written, so a
	// failing run still leaves its evidence behind.
	if *baselinePath != "" {
		if err := gate(lt, *baselinePath, *maxP99, *maxErrRate); err != nil {
			fmt.Fprintln(os.Stderr, "allocload: SLO gate:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "allocload: SLO gate passed (p99 %s, error rate %.4f, cache hit rate %.2f)\n",
			time.Duration(lt.Latency.P99NS), lt.ErrorRate, lt.Cache.HitRate)
	}
}

// gate checks the run against a baseline report's loadtest section.
func gate(lt *loadtestSection, baselinePath string, maxP99Factor, maxErrRate float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	if base.Loadtest == nil {
		return fmt.Errorf("%s: no loadtest section", baselinePath)
	}
	if lt.ErrorRate > maxErrRate {
		return fmt.Errorf("error rate %.4f exceeds %.4f (%d of %d requests failed)%s",
			lt.ErrorRate, maxErrRate, lt.Errors, lt.Requests,
			traceHint("errored traces", lt.ErrorTraceIDs))
	}
	if baseP99 := base.Loadtest.Latency.P99NS; baseP99 > 0 {
		limit := int64(float64(baseP99) * maxP99Factor)
		if lt.Latency.P99NS > limit {
			return fmt.Errorf("p99 %s exceeds %.1fx baseline p99 %s%s",
				time.Duration(lt.Latency.P99NS), maxP99Factor, time.Duration(baseP99),
				traceHint("slowest traces", lt.SlowTraceIDs))
		}
	}
	return nil
}

// traceHint renders the trace IDs a failing gate hands the operator —
// the lookup keys into the target's /debug/requests flight recorder.
func traceHint(label string, ids []string) string {
	if len(ids) == 0 {
		return ""
	}
	return fmt.Sprintf("; %s: %s", label, strings.Join(ids, " "))
}
