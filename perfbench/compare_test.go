package main

import (
	"testing"
)

// around returns n values spread evenly over m·(1±half).
func around(m, half float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = m * (1 - half + 2*half*float64(i)/float64(n-1))
	}
	return out
}

func TestJudge(t *testing.T) {
	lower := bound{Name: "latency_rel", Better: "lower", Bound: 0.10}
	higher := bound{Name: "ops", Better: "higher", Bound: 0.10}
	cases := []struct {
		name string
		a, b []float64
		bd   bound
		want string
	}{
		{"same runs", around(100, 0.02, 10), around(100, 0.02, 10), lower, unchanged},
		{"within the bound", around(100, 0.02, 10), around(105, 0.02, 10), lower, unchanged},
		{"beyond the bound", around(100, 0.02, 10), around(120, 0.02, 10), lower, worse},
		{"better beyond the spread", around(100, 0.02, 10), around(90, 0.02, 10), lower, better},
		// A 3% gain inside a 4% spread is not a gain.
		{"better within the spread", around(100, 0.04, 10), around(97, 0.04, 10), lower, unchanged},
		// A spread of about 30% cannot resolve a 10% bound...
		{"spread wider than the bound", around(100, 0.3, 10), around(101, 0.3, 10), lower, unresolved},
		{"worse under a wide spread", around(100, 0.3, 10), around(150, 0.3, 10), lower, unresolved},
		// ...unless every B run beats every A run.
		{"every run better", []float64{100, 130, 160}, []float64{50, 60, 99}, lower, better},
		{"higher is better, gained", around(100, 0.02, 10), around(120, 0.02, 10), higher, better},
		{"higher is better, lost", around(100, 0.02, 10), around(80, 0.02, 10), higher, worse},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := judge(c.a, c.b, c.bd)
			if v.outcome != c.want {
				t.Errorf("judge = %s (change %+.3f, spread %.3f), want %s", v.outcome, v.change, v.spread, c.want)
			}
		})
	}
}

func TestCompareSets(t *testing.T) {
	run := func(workload string, trace bool, metrics map[string]float64) report {
		r := report{Workload: workload, Trace: trace, Metrics: make(map[string]detail)}
		for k, v := range metrics {
			r.Metrics[k] = detail{Value: v}
		}
		return r
	}
	bounds := []bound{{Name: "latency_rel", Better: "lower", Bound: 0.10}}
	a := []report{
		run("compile-k16", false, map[string]float64{"latency_rel": 10, "vm_cycles": 500}),
		run("compile-k16", false, map[string]float64{"latency_rel": 10.2, "vm_cycles": 500}),
		run("service-repeat", false, map[string]float64{"latency_rel": 4}),
		// Traced runs and workloads only one side ran are left out.
		run("compile-k16", true, map[string]float64{"latency_rel": 99}),
		run("compile-k8", false, map[string]float64{"latency_rel": 12}),
	}
	b := []report{
		run("compile-k16", false, map[string]float64{"latency_rel": 10.1, "vm_cycles": 500}),
		run("compile-k16", false, map[string]float64{"latency_rel": 10.1, "vm_cycles": 501}),
		run("service-repeat", false, map[string]float64{"latency_rel": 6}),
	}
	got := make(map[[2]string]string)
	for _, v := range compareSets(bounds, a, b) {
		got[[2]string{v.workload, v.metric}] = v.outcome
	}
	want := map[[2]string]string{
		{"compile-k16", "latency_rel"}:    unchanged,
		{"compile-k16", "vm_cycles"}:      differs,
		{"service-repeat", "latency_rel"}: worse,
	}
	if len(got) != len(want) {
		t.Errorf("compareSets judged %v, want %v", got, want)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s %s: %q, want %q", k[0], k[1], got[k], w)
		}
	}
}
