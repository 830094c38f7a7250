// Command regalloc colors a standalone interference graph, so the
// heuristics can be compared outside the compiler (e.g. on graphs
// from other tools or on generated stress graphs), or — with -src —
// runs the full allocator over a mini-FORTRAN source file.
//
// Usage:
//
//	regalloc -k 4 graph.ig           color a graph file
//	regalloc -k 8 -random 200,0.3,7  color G(200, 0.3) with seed 7
//	regalloc -k 16 -svdlike          color the paper's SVD pressure pattern
//	regalloc -src prog.f             allocate every routine of a source file
//
// Graph mode can additionally run the speculative parallel colorer
// (internal/pcolor, unbounded palette — it reports colors used
// rather than spills within -k):
//
//	regalloc -pcolor -workers 4 -pseed 1 graph.ig
//
// Observability (either mode):
//
//	-trace out.jsonl          write the allocator's event stream as
//	                          JSON lines ("-" for stdout): phase
//	                          spans, counters, spill decisions,
//	                          color-reuse witnesses
//	-trace-perfetto out.json  write the same run as Chrome
//	                          trace-event JSON, openable directly in
//	                          ui.perfetto.dev (one named thread per
//	                          unit, phases nested as they ran)
//	-metrics                  print aggregated counters and
//	                          per-phase duration histograms after
//	                          the run
//
// Graph file format (text): one directive per line.
//
//	n <nodes>
//	e <a> <b>        interference edge (0-based node numbers)
//	c <a> <cost>     spill cost (default 1)
//	# comment
//
// For each heuristic the tool prints nodes spilled and, with -v, the
// full assignment.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"regalloc"
	"regalloc/internal/color"
	"regalloc/internal/graphgen"
	"regalloc/internal/ig"
	"regalloc/internal/obs"
	"regalloc/internal/obs/obsfile"
	"regalloc/internal/pcolor"
	"regalloc/internal/portfolio"
)

func main() {
	k := flag.Int("k", 8, "number of colors (registers)")
	random := flag.String("random", "", "generate G(n,p): \"n,p,seed\"")
	svdlike := flag.Bool("svdlike", false, "generate the paper's SVD pressure pattern")
	src := flag.String("src", "", "run the full allocator over a mini-FORTRAN source file")
	heuristic := flag.String("heuristic", "briggs", "-src mode: coloring heuristic (chaitin, briggs, mb, ssa, irc)")
	machineName := flag.String("machine", "", "-src mode: constrain the allocation with a register-file model (rtpc), resized to -k")
	usePortfolio := flag.Bool("portfolio", false, "-src mode: race the strategy portfolio per routine and keep the cheapest verified result")
	portfolioMode := flag.String("portfolio-mode", "race-to-best", "-portfolio: stopping rule (race-to-best, first-good)")
	portfolioBudget := flag.Duration("portfolio-budget", 0, "-portfolio: wall-clock budget for starting candidates (0 = none)")
	usePColor := flag.Bool("pcolor", false, "graph mode: also run the speculative parallel colorer")
	workers := flag.Int("workers", 0, "-pcolor: worker goroutines (0 = GOMAXPROCS)")
	pseed := flag.Uint64("pseed", 1, "-pcolor: permutation seed")
	palgo := flag.String("pcolor-algo", "speculative", "-pcolor: round structure (speculative | jp)")
	verbose := flag.Bool("v", false, "print the full color assignment")
	tracePath := flag.String("trace", "", "write a JSON-lines event trace to this file (\"-\" for stdout)")
	perfettoPath := flag.String("trace-perfetto", "", "write a Chrome/Perfetto trace-event JSON file (\"-\" for stdout)")
	metrics := flag.Bool("metrics", false, "print aggregated metrics after the run")
	flag.Parse()

	sink, metricsSink, closeObservers, err := obsfile.Open(*tracePath, *perfettoPath, *metrics)
	fail(err)

	if *src != "" {
		if *usePortfolio {
			runPortfolio(*src, *k, *portfolioMode, *portfolioBudget, sink)
		} else {
			runSource(*src, *heuristic, *machineName, *k, sink)
		}
	} else {
		runGraph(*k, *random, *svdlike, *verbose, sink)
		if *usePColor {
			runPColor(*workers, *pseed, parseAlgo(*palgo), *random, *svdlike, *verbose, sink)
		}
	}
	if metricsSink != nil {
		fmt.Print(metricsSink.Snapshot())
	}
	fail(closeObservers())
}

// runSource compiles a mini-FORTRAN file and allocates every routine
// with the observer wired in, printing a per-pass summary that the
// emitted spans reconcile with.
func runSource(path, heuristic, machineName string, k int, sink obs.Sink) {
	data, err := os.ReadFile(path)
	fail(err)
	h, err := color.ParseHeuristic(heuristic)
	fail(err)
	prog, err := regalloc.Compile(string(data))
	fail(err)

	opt := regalloc.DefaultOptions()
	opt.Heuristic = h
	opt.KInt = k
	opt.Observer = sink
	switch machineName {
	case "":
	case "rtpc", "rt/pc":
		opt.Machine = regalloc.MachineFor(regalloc.RTPC().WithGPR(opt.KInt).WithFPR(opt.KFloat))
	default:
		fail(fmt.Errorf("unknown -machine %q (want rtpc)", machineName))
	}
	for _, name := range prog.Functions() {
		res, err := prog.Allocate(name, opt)
		fail(err)
		fmt.Printf("%s: %d live range(s), %d pass(es), %d spilled, total %s\n",
			name, res.LiveRanges(), len(res.Passes), res.TotalSpilled(), res.TotalTime())
		for i, ps := range res.Passes {
			fmt.Printf("  pass %d: build %s, simplify %s, color %s, spill %s (%d nodes, %d edges, %d spilled)\n",
				i, ps.Build, ps.Simplify, ps.Color, ps.Spill, ps.LiveRanges, ps.Edges, ps.Spilled)
		}
	}
}

// runPortfolio compiles a mini-FORTRAN file and races the default
// strategy portfolio for every routine, printing each race's table:
// one line per candidate (status, spills, cost, time) with the
// winner starred.
func runPortfolio(path string, k int, mode string, budget time.Duration, sink obs.Sink) {
	data, err := os.ReadFile(path)
	fail(err)
	m, err := portfolio.ParseMode(mode)
	fail(err)
	prog, err := regalloc.Compile(string(data))
	fail(err)

	base := regalloc.DefaultOptions()
	base.KInt = k
	cands := regalloc.DefaultPortfolio(base)
	cfg := regalloc.PortfolioConfig{Mode: m, Budget: budget, Observer: sink}
	for _, name := range prog.Functions() {
		pr, err := prog.AllocatePortfolio(context.Background(), name, cands, cfg)
		fail(err)
		win := pr.Outcomes[pr.Winner]
		fmt.Printf("%s: %d candidate(s), winner %s (%d spilled, cost %d.%03d, margin %d.%03d), mode %s\n",
			name, len(pr.Outcomes), win.Name, win.Spills,
			win.SpillCostMilli/1000, win.SpillCostMilli%1000,
			pr.WinMarginMilli/1000, pr.WinMarginMilli%1000, pr.Mode)
		for _, o := range pr.Outcomes {
			star := " "
			if o.Index == pr.Winner {
				star = "*"
			}
			switch o.Status {
			case portfolio.Finished:
				fmt.Printf("  %s %-14s finished  %3d spilled, cost %8d.%03d, %s\n",
					star, o.Name, o.Spills, o.SpillCostMilli/1000, o.SpillCostMilli%1000, o.Duration)
			case portfolio.Cancelled:
				fmt.Printf("  %s %-14s cancelled\n", star, o.Name)
			case portfolio.Errored:
				fmt.Printf("  %s %-14s errored   %v\n", star, o.Name, o.Err)
			}
		}
	}
}

// runGraph colors a standalone interference graph with all three
// heuristics, tracing each under the unit name "graph:<heuristic>".
func runGraph(k int, random string, svdlike, verbose bool, sink obs.Sink) {
	g, costs, err := loadGraph(random, svdlike)
	if err == errNoInput {
		fmt.Fprintln(os.Stderr, "usage: regalloc [-k N] [-pcolor] (graph.ig | -random n,p,seed | -svdlike | -src file.f)")
		os.Exit(2)
	}
	fail(err)

	kf := color.NumColors(k, k)
	fmt.Printf("graph: %d nodes, %d edges, k = %d\n", g.NumNodes(), g.NumEdges(), k)
	for _, h := range []color.Heuristic{color.Chaitin, color.Briggs, color.MatulaBeck} {
		out := color.Run(nil, g, nil, costs, kf, h, color.CostOverDegree, obs.New(sink, "graph:"+h.String()))
		cost := 0.0
		for _, n := range out.Spilled {
			cost += costs[n]
		}
		fmt.Printf("%-12s spilled %3d node(s), cost %10.0f, scan work %d\n",
			h.String()+":", len(out.Spilled), cost, out.ScanSteps)
		if verbose && out.Colors != nil {
			fmt.Printf("  colors: %v\n", out.Colors)
		}
	}
}

// parseAlgo maps the -pcolor-algo spelling to a pcolor.Algo.
func parseAlgo(s string) pcolor.Algo {
	switch s {
	case "speculative", "":
		return pcolor.Speculative
	case "jp", "jones-plassmann":
		return pcolor.JonesPlassmann
	}
	fail(fmt.Errorf("bad -pcolor-algo %q (want speculative or jp)", s))
	return pcolor.Speculative
}

// runPColor runs the parallel colorer on the same graph as runGraph
// (the generators are deterministic, so re-generating yields the
// identical graph), tracing under "graph:pcolor".
func runPColor(workers int, seed uint64, algo pcolor.Algo, random string, svdlike, verbose bool, sink obs.Sink) {
	g, _, err := loadGraph(random, svdlike)
	fail(err)
	tr := obs.New(sink, "graph:pcolor")
	t0 := tr.Begin(obs.PhaseColor)
	colors, st := pcolor.Color(g, pcolor.Options{Workers: workers, Seed: seed, Algo: algo, Tracer: tr})
	dur := tr.End(obs.PhaseColor, t0)
	if err := color.Verify(g, colors, pcolor.KFor(st)); err != nil {
		fail(fmt.Errorf("pcolor produced an improper coloring: %w", err))
	}
	fmt.Printf("pcolor[%s]: %d worker(s), seed %d: %d int + %d float color(s) in %d round(s), %d conflict(s), %d recolored, %s (verified)\n",
		algo, st.Workers, seed, st.ColorsInt, st.ColorsFloat, st.Rounds, st.Conflicts, st.Recolored, dur)
	if verbose {
		fmt.Printf("  colors: %v\n", colors)
	}
}

// loadGraph resolves the graph-mode input exactly like runGraph.
func loadGraph(random string, svdlike bool) (*ig.Graph, []float64, error) {
	switch {
	case random != "":
		return parseRandom(random)
	case svdlike:
		g, costs := graphgen.SVDLike(10, 4, 3, 10, 8, 42)
		return g, costs, nil
	case flag.NArg() == 1:
		return readGraph(flag.Arg(0))
	}
	return nil, nil, errNoInput
}

var errNoInput = fmt.Errorf("no graph input")

func parseRandom(spec string) (*ig.Graph, []float64, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return nil, nil, fmt.Errorf("bad -random spec %q (want n,p,seed)", spec)
	}
	n, err := strconv.Atoi(parts[0])
	if err != nil {
		return nil, nil, err
	}
	p, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return nil, nil, err
	}
	seed, err := strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return nil, nil, err
	}
	g, costs := graphgen.Random(n, p, seed)
	return g, costs, nil
}

func readGraph(path string) (*ig.Graph, []float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	g, costs, err := graphgen.ReadGraph(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, costs, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "regalloc:", err)
		os.Exit(1)
	}
}
