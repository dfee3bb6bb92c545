package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// The benchmark runs on shared machines whose speed drifts by a third
// within minutes, in phases longer than a run, so two runs of the same
// commit can differ by more than any useful bound. Timing metrics are
// therefore scaled to a reference speed. The window is cut into slices;
// before and after each slice and each set-up every client runs the same
// fixed calibration work, and the interval's times are multiplied by
// referenceMS over the mean of the two calibration times around it. A
// slow phase stretches the loads and the calibration alike and cancels.
// The work is the benchmark's own code, so no change to the program can
// move it, and it allocates nothing, so the program's garbage does not
// either.
const (
	// sliceLen is the longest slice of the window.
	sliceLen = time.Second
	// calibrationIters sizes the calibration work: about 40 ms.
	calibrationIters = 2000
	// referenceMS is what the calibration work takes on a 2-vCPU KVM
	// guest (Intel Xeon at 2.1 GHz) in a quiet phase, so scaled times
	// read close to that machine's.
	referenceMS = 40.0
)

// calibrator holds one calibration state per client and every
// calibration time of a run, in ms.
type calibrator struct {
	states []*calibration
	ms     []float64
}

func newCalibrator(clients int) *calibrator {
	c := &calibrator{}
	for range clients {
		c.states = append(c.states, newCalibration())
	}
	return c
}

// mark finishes the garbage collection the loads left in flight, so it
// does not run against the calibration, then times the calibration work
// on every client at once and records the time.
func (c *calibrator) mark() {
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, s := range c.states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work()
		}()
	}
	wg.Wait()
	c.ms = append(c.ms, float64(time.Since(t0).Nanoseconds())/1e6)
}

// factor converts times measured between marks k and k+1 to the
// reference speed.
func (c *calibrator) factor(k int) float64 {
	return referenceMS / ((c.ms[k] + c.ms[k+1]) / 2)
}

// calibration is sorting and hashing the same fixed numbers again and
// again, in buffers allocated once.
type calibration struct {
	src, buf []uint64
	m        map[uint64]uint64
	sink     uint64
}

func newCalibration() *calibration {
	s := &calibration{src: make([]uint64, 7*512), buf: make([]uint64, 512), m: map[uint64]uint64{}}
	x := uint64(1)
	for i := range s.src {
		x = x*6364136223846793005 + 1442695040888963407
		s.src[i] = x >> 11
	}
	for k := range uint64(1024) {
		s.m[k] = k
	}
	return s
}

func (s *calibration) work() {
	for i := range calibrationIters {
		off := i % 7 * 512
		copy(s.buf, s.src[off:off+512])
		slices.Sort(s.buf)
		for j := 0; j < 64; j++ {
			s.m[s.buf[j*8]&1023] += uint64(j)
		}
		s.sink += s.buf[256]
	}
}
