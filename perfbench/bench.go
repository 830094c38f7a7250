package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	allocd  string // allocd binary, for the service workloads
}

// A workload is one set of inputs and the operation the benchmark
// times on them. open builds the inputs from the seed, starts what
// the workload needs, and runs the untimed warm-up.
type workload struct {
	name string
	op   string // the metric that reports one operation's wall time
	open func(cfg config) (session, error)
}

// session is a set-up workload, ready to measure.
type session interface {
	// measure runs operations until the deadline and checks every
	// output. rec is nil on the untraced pass.
	measure(until time.Time, rec *recorder) *tally
	// close stops everything the session started and waits for it.
	close() error
}

// warmups is how many untimed operations a session runs before it is
// handed over for measurement: caches, pools and the heap settle.
const warmups = 3

// setups is how many times a run sets the workload up; setup_s is
// the median, so one slow start does not move it.
const setups = 5

// allWorkloads is the benchmark's workload set, in run order. Each
// loads a different layer; README.md says which metric should move
// on which workload.
var allWorkloads = []workload{
	// The paper's (16,8) machine over the 29-unit suite: Build, mostly
	// coalescing, dominates and spill work is small.
	{name: "compile-k16", op: "compile_ms", open: openCompile(regs{16, 8})},
	// The same pipeline at (8,4): 2-4 Figure 4 passes, so simplify,
	// select and spill-code insertion do most of the work.
	{name: "compile-k8", op: "compile_ms", open: openCompile(regs{8, 4})},
	// The full 11-candidate race on every unit: exercises irc, ssa and
	// pcolor, which the compile workloads bypass.
	{name: "portfolio-race", op: "race_ms", open: openRace},
	// allocd with 20 fixed bodies: every timed request is a cache hit,
	// so front end and keying show.
	{name: "service-repeat", op: "svc_round_ms", open: openService(repeatBodies)},
	// allocd with every body distinct: nearly every request misses (a
	// few distinct bodies share a cache key), so allocation, rendering
	// and cache fill show.
	{name: "service-unique", op: "svc_round_ms", open: openService(uniqueBodies)},
}

func findWorkload(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tally is what one measurement pass observed.
type tally struct {
	attempted, failed int
	errs              []error // the first few failures, for the log

	// Per timed operation: wall time, CPU time, heap allocated. The
	// service workloads measure allocd's CPU and heap once per pass,
	// as one per-round average.
	opMS      []float64
	cpuMS     []float64
	allocMB   []float64
	requestMS []float64     // service workloads: each request's round trip
	wall      time.Duration // length of the measurement pass
	peakRSSMB float64       // peak resident set of the serving process

	// cal times the calibration work after each operation; opRel and
	// cpuRel are each operation's wall and CPU time divided by the
	// calibration time around it.
	cal           *calibrator
	opRel, cpuRel []float64

	// exact holds deterministic results (quality counts), identical
	// on every operation of a correct run.
	exact map[string]float64
	// layers holds per-layer metrics a session derives itself.
	layers map[string]float64
}

const maxLoggedErrs = 5

func newTally() *tally { return &tally{cal: newCalibrator(), layers: make(map[string]float64)} }

// fail records one failed operation.
func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < maxLoggedErrs {
		t.errs = append(t.errs, err)
	}
}

// op records one successful operation: its wall time, CPU time and
// heap allocation.
func (t *tally) op(wall, cpu time.Duration, allocBytes uint64) {
	t.opMS = append(t.opMS, ms(wall))
	t.cpuMS = append(t.cpuMS, ms(cpu))
	t.allocMB = append(t.allocMB, float64(allocBytes)/(1<<20))
}

// calibrate runs the calibration work and, when an operation
// succeeded since the tally held n of them, records that operation
// relative to the calibration time around it.
func (t *tally) calibrate(n int) {
	t.cal.run()
	if len(t.opMS) > n {
		c := t.cal.around()
		t.opRel = append(t.opRel, t.opMS[len(t.opMS)-1]/c)
		t.cpuRel = append(t.cpuRel, t.cpuMS[len(t.cpuMS)-1]/c)
	}
}

// setExact records a deterministic result; a value that differs from
// an earlier operation's is itself a failure.
func (t *tally) setExact(name string, v float64) {
	if t.exact == nil {
		t.exact = make(map[string]float64)
	}
	if old, ok := t.exact[name]; ok && old != v {
		t.fail(fmt.Errorf("%s changed between operations: %v then %v", name, old, v))
		return
	}
	t.exact[name] = v
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocated is the heap this process has allocated so far.
func allocated() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}

// peakRSSMB is the process's maximum resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// settle runs the collector so one operation's garbage is not charged
// to the next; it sits outside every timed region.
func settle() { runtime.GC() }

// seeded returns the run's random source; the same seed always gives
// the same inputs.
func seeded(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}
