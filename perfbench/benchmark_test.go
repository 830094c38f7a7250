package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkFileMatchesCode holds BENCHMARK.json to the workloads
// and metric sets the benchmark reports.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(allWorkloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the code", len(bf.Workloads), len(allWorkloads))
	}
	for i, w := range bf.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("workload %d: %v", i, err)
		}
	}
	same := func(kind string, file []metric, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(file), len(code))
		}
		units := make(map[string]string)
		for _, d := range code {
			units[d.name] = d.unit
		}
		for _, m := range file {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s in %q; the code reports it in %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer())
}
