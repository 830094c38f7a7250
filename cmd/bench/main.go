// Command bench regenerates the paper's evaluation tables.
//
// Usage:
//
//	bench -figure 5          # Figure 5: static spills + dynamic gains
//	bench -figure 6          # Figure 6: the quicksort register study
//	bench -figure 7          # Figure 7: allocator phase CPU times
//	bench -figure ablations  # design-choice studies (DESIGN.md §7)
//	bench -figure integer    # the §3.2 integer-kernel extension
//	bench -figure passes     # §3.3 convergence of the Figure 4 cycle
//	bench -figure pcolor     # speculative parallel coloring study
//	bench -figure portfolio  # heuristic-portfolio racing study
//	bench -figure scale      # 10^5+-node CSR + parallel coloring tier
//	bench -figure ssa        # SSA-form chordal allocator study
//	bench -figure irc        # iterated register coalescing study
//	bench -figure all        # everything
//	bench -figure scale -scale-nodes 1000000
//	bench -figure 6 -n 200000
//
// Observability:
//
//	bench -figure 7 -trace out.jsonl        stream every allocator
//	                                        event (phase spans,
//	                                        counters, spill
//	                                        decisions) as JSON lines
//	bench -figure 7 -trace-perfetto t.json  write the same run as
//	                                        Chrome trace-event JSON
//	                                        for ui.perfetto.dev
//	bench -figure all -metrics              print aggregated counters
//	                                        and per-phase duration
//	                                        histograms
package main

import (
	"flag"
	"fmt"
	"os"

	"regalloc/internal/experiments"
	"regalloc/internal/fsutil"
	"regalloc/internal/obs"
	"regalloc/internal/obs/traceevent"
)

func main() {
	figure := flag.String("figure", "all", "which figure to regenerate: 5, 6, 7, ablations, integer, passes, pcolor, portfolio, scale, ssa, irc, or all")
	n := flag.Int64("n", 200000, "quicksort element count for figure 6")
	scaleNodes := flag.Int("scale-nodes", 100000, "node count per topology for -figure scale")
	tracePath := flag.String("trace", "", "write a JSON-lines allocator event trace to this file (\"-\" for stdout)")
	perfettoPath := flag.String("trace-perfetto", "", "write a Chrome/Perfetto trace-event JSON file (\"-\" for stdout)")
	metrics := flag.Bool("metrics", false, "print aggregated allocator metrics after the figures")
	benchJSON := flag.String("bench-json", "", "write the quality studies (portfolio, scale, ssa, irc) as machine-readable JSON to this file and exit")
	flag.Parse()

	if *benchJSON != "" {
		fail(runBenchJSON(*benchJSON))
		return
	}

	var traceSink obs.Sink
	closeTrace := func() error { return nil }
	if *tracePath != "" {
		w := os.Stdout
		var f *os.File
		if *tracePath != "-" {
			var err error
			f, err = os.Create(*tracePath)
			fail(err)
			w = f
		}
		js := obs.NewJSONSink(w)
		traceSink = js
		// Checked at exit, not dropped in a defer: a full disk
		// surfaces as a mid-stream write error (remembered by the
		// sink), at fsync, or at close, and any of them must fail the
		// run instead of shipping a silently truncated trace.
		closeTrace = func() error {
			if err := js.Err(); err != nil {
				return err
			}
			if f != nil {
				return fsutil.SyncClose(f)
			}
			return nil
		}
	}
	var perfettoSink *traceevent.Sink
	closePerfetto := func() error { return nil }
	if *perfettoPath != "" {
		perfettoSink = traceevent.New()
		// Buffered in the sink and written once at exit, through the
		// same fsync-or-error close path as every other result file.
		closePerfetto = func() error {
			if *perfettoPath == "-" {
				return perfettoSink.WriteJSON(os.Stdout)
			}
			f, err := os.Create(*perfettoPath)
			if err != nil {
				return err
			}
			if err := perfettoSink.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			return fsutil.SyncClose(f)
		}
	}
	var metricsSink *obs.MetricsSink
	if *metrics {
		metricsSink = obs.NewMetricsSink()
	}
	experiments.SetObserver(obs.Multi(traceSink, metricsSink, perfettoSink))

	run5 := *figure == "5" || *figure == "all"
	run6 := *figure == "6" || *figure == "all"
	run7 := *figure == "7" || *figure == "all"
	runAb := *figure == "ablations" || *figure == "all"
	runInt := *figure == "integer" || *figure == "all"
	runPass := *figure == "passes" || *figure == "all"
	runPC := *figure == "pcolor" || *figure == "all"
	runPort := *figure == "portfolio" || *figure == "all"
	runScale := *figure == "scale" || *figure == "all"
	runSSA := *figure == "ssa" || *figure == "all"
	runIRC := *figure == "irc" || *figure == "all"
	if !run5 && !run6 && !run7 && !runAb && !runInt && !runPass && !runPC && !runPort && !runScale && !runSSA && !runIRC {
		fmt.Fprintf(os.Stderr, "bench: unknown figure %q (want 5, 6, 7, ablations, integer, passes, pcolor, portfolio, scale, ssa, irc, or all)\n", *figure)
		os.Exit(2)
	}

	if run5 {
		fmt.Println("=== Figure 5: register allocation improvements ===")
		res, err := experiments.Figure5()
		fail(err)
		fmt.Println(res)
	}
	if run6 {
		fmt.Println("=== Figure 6: quicksort study ===")
		res, err := experiments.Figure6(*n)
		fail(err)
		fmt.Println(res)
	}
	if run7 {
		fmt.Println("=== Figure 7: CPU time for allocator phases ===")
		res, err := experiments.Figure7()
		fail(err)
		fmt.Println(res)
	}
	if runAb {
		fmt.Println("=== Ablations (beyond the paper; see DESIGN.md §7) ===")
		res, err := experiments.Ablations()
		fail(err)
		fmt.Println(res)
	}
	if runInt {
		fmt.Println("=== Integer kernels (the further study §3.2 asks for) ===")
		res, err := experiments.IntegerStudy()
		fail(err)
		fmt.Println(res)
	}
	if runPass {
		fmt.Println("=== Convergence (§3.3: passes around the Figure 4 cycle) ===")
		res, err := experiments.PassStudy()
		fail(err)
		fmt.Println(res)
	}
	if runPC {
		fmt.Println("=== Speculative parallel coloring (Rokos-style; beyond the paper) ===")
		res, err := experiments.PColorStudy()
		fail(err)
		fmt.Println(res)
	}
	if runPort {
		fmt.Println("=== Heuristic-portfolio racing (beyond the paper) ===")
		res, err := experiments.PortfolioStudy()
		fail(err)
		fmt.Println(res)
	}
	if runScale {
		fmt.Println("=== Scale tier: CSR adjacency + parallel coloring at 10^5+ nodes ===")
		res, err := experiments.ScaleStudy(*scaleNodes)
		fail(err)
		fmt.Println(res)
	}
	if runSSA {
		fmt.Println("=== SSA-form chordal allocation (beyond the paper) ===")
		res, err := experiments.SSAStudy()
		fail(err)
		fmt.Println(res)
	}
	if runIRC {
		fmt.Println("=== Iterated register coalescing (George-Appel; beyond the paper) ===")
		res, err := experiments.IRCStudy()
		fail(err)
		fmt.Println(res)
	}

	if metricsSink != nil {
		fmt.Println("=== Allocator metrics (aggregated over every run above) ===")
		fmt.Print(metricsSink.Snapshot())
	}
	if err := closeTrace(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: closing trace:", err)
		os.Exit(1)
	}
	if err := closePerfetto(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing perfetto trace:", err)
		os.Exit(1)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
