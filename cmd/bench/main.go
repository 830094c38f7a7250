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
	"regalloc/internal/obs/obsfile"
)

func main() {
	figure := flag.String("figure", "all", "which figure to regenerate: 5, 6, 7, ablations, integer, passes, pcolor, portfolio, scale, ssa, irc, or all")
	n := flag.Int64("n", 200000, "quicksort element count for figure 6")
	scaleNodes := flag.Int("scale-nodes", 100000, "node count per topology for -figure scale")
	tracePath := flag.String("trace", "", "write a JSON-lines allocator event trace to this file (\"-\" for stdout)")
	perfettoPath := flag.String("trace-perfetto", "", "write a Chrome/Perfetto trace-event JSON file (\"-\" for stdout)")
	metrics := flag.Bool("metrics", false, "print aggregated allocator metrics after the figures")
	flag.Parse()

	sink, metricsSink, closeObservers, err := obsfile.Open(*tracePath, *perfettoPath, *metrics)
	fail(err)
	experiments.SetObserver(sink)

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
	fail(closeObservers())
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
