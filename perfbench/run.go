package main

import (
	"fmt"
	"io"
	"time"
)

// report is one run of one workload: the result line the benchmark
// prints last, and the record -out appends.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]detail `json:"metrics"`
}

// refCalibMS is the calibration's time on the quiet 2-CPU host the
// benchmark was sized on. setup_s is each set-up's wall time scaled
// by refCalibMS over the calibration time around it: set-up time in
// that host's seconds. Raw set-up time drifts with the host by more
// than its bound; setup_wall_s reports it unscaled.
const refCalibMS = 15

// runWorkload sets w up setups times (keeping the last session), then
// measures for cfg.seconds. Untraced, it reports the end-to-end
// metrics. Traced, the first third of the time runs untraced and the
// rest traced, and it reports the per-layer metrics. An error means
// the run could not be set up or shut down; failed operations are
// counted in the report instead. A traced run also returns its spans.
func runWorkload(w workload, cfg config, log io.Writer) (*report, *recorder, error) {
	var setupS, setupWallS []float64
	var s session
	cal := newCalibrator()
	cal.run()
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", w.name, err)
			}
		}
		t0 := time.Now()
		var err error
		if s, err = w.open(cfg); err != nil {
			return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		wall := time.Since(t0).Seconds()
		cal.run()
		setupWallS = append(setupWallS, wall)
		setupS = append(setupS, wall*refCalibMS/cal.around())
	}

	run := time.Duration(cfg.seconds) * time.Second
	rep := &report{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Metrics: make(map[string]detail)}
	var t, untraced *tally
	var rec *recorder
	if cfg.trace {
		untraced = s.measure(time.Now().Add(run/3), nil)
		rec = newRecorder()
		t = s.measure(time.Now().Add(run-run/3), rec)
	} else {
		t = s.measure(time.Now().Add(run), nil)
	}
	if err := s.close(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}

	rep.Attempted, rep.Failed = t.attempted, t.failed
	if untraced != nil {
		rep.Attempted += untraced.attempted
		rep.Failed += untraced.failed
	}
	rep.Correct = rep.Attempted > 0 && rep.Failed == 0
	for _, u := range []*tally{untraced, t} {
		if u == nil {
			continue
		}
		for _, err := range u.errs {
			fmt.Fprintf(log, "%s: failed: %v\n", w.name, err)
		}
	}

	m := rep.Metrics
	m["error_rate"] = detail{Value: float64(rep.Failed) / float64(max(rep.Attempted, 1)), Unit: "fraction"}
	for _, q := range qualityDefs {
		if v, ok := t.exact[q.name]; ok {
			m[q.name] = detail{Value: v, Unit: q.unit}
		}
	}
	if !cfg.trace {
		m["setup_s"] = sampled(setupS, "s")
		m["setup_wall_s"] = sampled(setupWallS, "s")
		m["latency_rel"] = sampled(t.opRel, "x")
		m["cpu_rel"] = sampled(t.cpuRel, "x")
		m["alloc_mb"] = sampled(t.allocMB, "MB")
		m[w.op] = sampled(t.opMS, "ms")
		m["cpu_ms"] = sampled(t.cpuMS, "ms")
		m["peak_rss_mb"] = detail{Value: t.peakRSSMB, Unit: "MB"}
		m["calib_ms"] = sampled(t.cal.ms, "ms")
		if len(t.requestMS) > 0 {
			m["svc_p50_ms"] = sampled(t.requestMS, "ms")
			if s := summarize(t.requestMS); s.HasP95 {
				m["svc_p95_ms"] = detail{Value: s.P95, Unit: "ms", N: s.N}
			}
			m["svc_rps"] = detail{Value: float64(len(t.requestMS)) / t.wall.Seconds(), Unit: "req/s"}
		}
		return rep, nil, nil
	}

	layers := layerMetrics(rec)
	for k, v := range t.layers {
		layers[k] = v
	}
	for k, v := range t.exact {
		layers[k] = v
	}
	if base := median(untraced.opRel); base > 0 {
		layers["trace_overhead_pct"] = (median(t.opRel) - base) / base * 100
	}
	for _, d := range perLayer() {
		m[d.name] = detail{Value: layers[d.name], Unit: d.unit}
	}
	return rep, rec, nil
}

// value is a metric on the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's last line of output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result is this run's result line: correctness, operation counts,
// and the metric set of its mode.
func (r *report) result() resultLine {
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]value)}
	for _, d := range r.contract() {
		line.Metrics[d.name] = value{r.Metrics[d.name].Value, d.unit}
	}
	return line
}

// contract returns the metric set this run reports on its last line.
func (r *report) contract() []metricDef {
	if r.Trace {
		return perLayer()
	}
	return endToEnd
}
