package main

import (
	"io"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestInProcessWorkloads sets up each compile workload and the
// portfolio race and runs one checked operation of each.
func TestInProcessWorkloads(t *testing.T) {
	for _, name := range []string{"compile-k16", "compile-k8", "portfolio-race"} {
		t.Run(name, func(t *testing.T) {
			w, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := w.open(config{seed: 1})
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			defer s.close()
			// An operation outlasts this deadline, so the loop ends
			// after the first.
			tl := s.measure(time.Now().Add(100*time.Millisecond), nil)
			if tl.attempted < 1 || tl.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", tl.attempted, tl.failed, tl.errs)
			}
			if len(tl.opRel) != tl.attempted || tl.opRel[0] <= 0 {
				t.Errorf("calibrated operation times %v for %d operations", tl.opRel, tl.attempted)
			}
			for _, q := range qualityDefs {
				if tl.exact[q.name] <= 0 {
					t.Errorf("%s = %v, want a positive count", q.name, tl.exact[q.name])
				}
			}
		})
	}
}

// TestResultLine runs compile-k16 through runWorkload both ways and
// checks that each result line carries exactly its metric set.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("sets the workload up five times per mode")
	}
	w, err := findWorkload("compile-k16")
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		rep, _, err := runWorkload(w, config{seed: 1, seconds: 1, trace: trace}, io.Discard)
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		line := rep.result()
		if !line.Correct || line.Attempted < 1 {
			t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, line.Correct, line.Attempted, line.Failed)
		}
		want := rep.contract()
		if len(line.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(line.Metrics), len(want))
		}
		for _, d := range want {
			v, ok := line.Metrics[d.name]
			switch {
			case !ok:
				t.Errorf("trace=%v: no %s", trace, d.name)
			case v.Unit != d.unit:
				t.Errorf("trace=%v: %s unit %q, want %q", trace, d.name, v.Unit, d.unit)
			case !trace && v.Value <= 0:
				t.Errorf("%s = %v; end-to-end metrics are never 0", d.name, v.Value)
			}
		}
	}
}

// TestServiceWorkloads runs each service workload for about a second
// against an allocd built from this repository.
func TestServiceWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds allocd")
	}
	allocd := filepath.Join(t.TempDir(), "allocd")
	if out, err := exec.Command("go", "build", "-o", allocd, "regalloc/cmd/allocd").CombinedOutput(); err != nil {
		t.Fatalf("building allocd: %v\n%s", err, out)
	}
	for _, name := range []string{"service-repeat", "service-unique"} {
		t.Run(name, func(t *testing.T) {
			w, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := w.open(config{seed: 1, allocd: allocd})
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			defer s.close()
			tl := s.measure(time.Now().Add(time.Second), nil)
			if tl.attempted == 0 || tl.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", tl.attempted, tl.failed, tl.errs)
			}
			if len(tl.cpuMS) != 1 || tl.cpuMS[0] <= 0 || tl.allocMB[0] <= 0 || tl.peakRSSMB <= 0 {
				t.Errorf("allocd usage not read: cpu %v, alloc %v, peak %v", tl.cpuMS, tl.allocMB, tl.peakRSSMB)
			}
			if err := s.close(); err != nil {
				t.Errorf("stopping allocd: %v", err)
			}
		})
	}
}
