// Command perfbench is the repository's benchmark: it times the
// compiler and allocator end to end (source → allocated code → VM)
// and the allocd service request by request, checks every output,
// and prints every metric by name with its unit. See README.md.
//
//	perfbench -workload compile-k16 -seed 1 -seconds 16 -trace 0
//	perfbench -workload all -out runs.jsonl
//	perfbench -compare before.jsonl after.jsonl
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are the end-to-end set, with -trace 1 the per-layer set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// procs is the benchmark's thread budget: the 2-CPU host it is sized
// for. The service workloads give allocd the same.
const procs = 2

func main() {
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 16, "measurement time per run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	spans := flag.String("spans", "", "write the traced pass's spans here as Chrome trace JSON")
	out := flag.String("out", "", "append each run's full report to this file as a JSON line")
	allocd := flag.String("allocd", "", "allocd binary for the service workloads")
	compare := flag.Bool("compare", false, "compare two -out files: perfbench -compare A B")
	benchmark := flag.String("benchmark", "BENCHMARK.json", "where -compare reads the metric bounds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two files")
		}
		if err := runCompare(os.Stdout, *benchmark, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace is 0 or 1")
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	if *spans != "" && *trace != 1 {
		fatalf("-spans needs -trace 1")
	}
	runtime.GOMAXPROCS(procs)

	ws := allWorkloads
	if *workloadName != "all" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fatalf("%v", err)
		}
		ws = []workload{w}
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, allocd: *allocd}
	var reports []*report
	var names []string
	var recs []*recorder
	for _, w := range ws {
		rep, rec, err := runWorkload(w, cfg, os.Stderr)
		if err != nil {
			fatalf("%v", err)
		}
		if rec != nil {
			names, recs = append(names, w.name), append(recs, rec)
		}
		printReport(os.Stdout, rep)
		if *out != "" {
			if err := appendJSONLine(*out, rep); err != nil {
				fatalf("%v", err)
			}
		}
		reports = append(reports, rep)
	}
	if *spans != "" {
		if err := writeChrome(*spans, names, recs); err != nil {
			fatalf("%v", err)
		}
	}
	last := reports[0].result()
	if len(reports) > 1 {
		last = combined(reports)
	}
	b, err := json.Marshal(last)
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	// A run that finished exits 0 even when checks failed: the result
	// line says so, and standard error lists the failures.
	fmt.Println(string(b))
}

// combined folds several workloads' results into one result line,
// naming each metric workload/metric.
func combined(reports []*report) resultLine {
	all := resultLine{Correct: true, Metrics: make(map[string]value)}
	for _, r := range reports {
		line := r.result()
		all.Correct = all.Correct && line.Correct
		all.Attempted += line.Attempted
		all.Failed += line.Failed
		for name, v := range line.Metrics {
			all.Metrics[r.Workload+"/"+name] = v
		}
	}
	return all
}

// printReport writes a run's metrics, one per line, by name with unit.
func printReport(w io.Writer, r *report) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  attempted %d  failed %d\n", r.Workload, r.Seed, mode, r.Attempted, r.Failed)
	for _, name := range sortedNames(r.Metrics) {
		fmt.Fprintln(w, "  "+r.Metrics[name].line(name))
	}
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
