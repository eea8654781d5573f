package main

import (
	"os"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// refKernelSeconds is the calibration kernel's wall time on the
// reference machine (the 2-vCPU Xeon the README's numbers come from,
// at a quiet moment). Reported host times are scaled to that speed.
const refKernelSeconds = 0.025

// calibrator times a fixed, allocation-free kernel of standard-library
// work on every processor: generate, sort, then scatter-update a table
// larger than the caches. The machine's speed drifts by a quarter or
// more within minutes on a shared host, and the drift hits the kernel
// and the simulator alike; timing the kernel between ops, and during a
// long wait in pauses of the measured process (waitSliced), turns each
// raw time into reference seconds, so runs minutes apart compare. The
// kernel shares no code with the programs under test, so no change to
// them can move it.
type calibrator struct {
	bufs []kernelBuf
}

type kernelBuf struct{ xs, table []uint64 }

func newCalibrator() *calibrator {
	c := &calibrator{bufs: make([]kernelBuf, runtime.GOMAXPROCS(0))}
	for i := range c.bufs {
		c.bufs[i] = kernelBuf{xs: make([]uint64, 1<<17), table: make([]uint64, 1<<19)}
	}
	c.measure() // fault the buffers in
	return c
}

// measure runs the kernel once and returns its wall time in seconds.
func (c *calibrator) measure() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for i := range c.bufs {
		wg.Add(1)
		go func(b *kernelBuf, seed uint64) {
			defer wg.Done()
			b.run(seed)
		}(&c.bufs[i], uint64(i)+1)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// scale returns the factor that turns a wall time measured between
// kernel runs taking before and after seconds into reference seconds.
func scale(before, after float64) float64 {
	return refKernelSeconds / ((before + after) / 2)
}

// slicePeriod is how long a measured process runs between calibration
// pauses in waitSliced.
const slicePeriod = 250 * time.Millisecond

// waitSliced waits until done delivers the instant the process p
// reached the awaited point (it exited, or finished its set-up). Every
// slicePeriod it stops p (SIGSTOP), times the kernel and resumes p
// (SIGCONT), so a seconds-long wait is calibrated as finely as a short
// op. before is the kernel time measured just before the wait began. It
// returns p's running time up to that instant in seconds and in
// reference seconds, the last kernel time, and false if done closed
// without a value.
func waitSliced(p *os.Process, cal *calibrator, before float64, done <-chan time.Time) (secs, ref, last float64, ok bool) {
	start := time.Now()
	var paused time.Time // when the previous slice ended
	var prev float64     // the previous slice's scale
	for {
		select {
		case at, ok := <-done:
			after := cal.measure()
			if !ok {
				return secs, ref, after, false
			}
			if at.Before(start) {
				// Reached in the previous slice, which counted up to its pause.
				over := paused.Sub(at).Seconds()
				return secs - over, ref - over*prev, after, true
			}
			slice := at.Sub(start).Seconds()
			return secs + slice, ref + slice*scale(before, after), after, true
		case <-time.After(slicePeriod):
			_ = p.Signal(syscall.SIGSTOP) // fails only once p has exited
			paused = time.Now()
			after := cal.measure()
			prev = scale(before, after)
			slice := paused.Sub(start).Seconds()
			secs, ref, before = secs+slice, ref+slice*prev, after
			_ = p.Signal(syscall.SIGCONT)
			start = time.Now()
		}
	}
}

func (b *kernelBuf) run(seed uint64) {
	x := seed * 0x9E3779B97F4A7C15
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	mask := uint64(len(b.table) - 1)
	for pass := 0; pass < 2; pass++ {
		for i := range b.xs {
			b.xs[i] = next()
		}
		slices.Sort(b.xs)
		for _, v := range b.xs {
			b.table[next()&mask] += v
		}
	}
}
