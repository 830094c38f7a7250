package main

import (
	"slices"
	"time"
)

// calibrator times a fixed piece of work that runs no repository code
// (sorting, then hashing, a fixed array), interleaved with a
// workload's operations. It says how fast the host ran while the
// workload was measured: on a shared host that speed drifts by more
// than the bounds the benchmark holds timings to, within a run and
// from run to run, and it moves every timing of the run together.
type calibrator struct {
	src, buf []uint32
	set      map[uint32]uint32
	ms       []float64
}

// calibSize sizes the calibration work at about 15 ms: long enough
// that one pre-empted slice does not decide its time.
const calibSize = 1 << 17

func newCalibrator() *calibrator {
	c := &calibrator{src: make([]uint32, calibSize), buf: make([]uint32, calibSize), set: make(map[uint32]uint32, calibSize)}
	x := uint32(2463534242)
	for i := range c.src {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		c.src[i] = x
	}
	return c
}

// run times the work once and records its time in milliseconds. It
// allocates nothing, so the collector state the workload leaves
// behind does not change its time.
func (c *calibrator) run() {
	t0 := time.Now()
	copy(c.buf, c.src)
	slices.Sort(c.buf)
	clear(c.set)
	for i, v := range c.buf {
		c.set[v] = uint32(i)
	}
	c.ms = append(c.ms, ms(time.Since(t0)))
}

// around is the calibration time around the operation that ran before
// the latest run: the mean of the runs on either side of it, or the
// latest alone when it is the first.
func (c *calibrator) around() float64 {
	n := len(c.ms)
	if n == 1 {
		return c.ms[0]
	}
	return (c.ms[n-2] + c.ms[n-1]) / 2
}

// mean is the calibration time averaged over a pass. Work that cannot
// be timed operation by operation, such as allocd's CPU, is divided by
// it: a mean over the pass matches a total over the pass.
func (c *calibrator) mean() float64 {
	var sum float64
	for _, v := range c.ms {
		sum += v
	}
	return sum / float64(len(c.ms))
}
