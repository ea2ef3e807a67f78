package main

import (
	"runtime"
	"syscall"
	"time"
)

// The benchmark reports host times in seconds at a fixed reference clock.
// On a shared machine the core clock drifts with the load of the other
// tenants: over ten back-to-back 40-second runs of fleet-overload the
// median CPU time of a day ranged from 1.14 s to 1.49 s, and the time of
// the calibration chain below moved with it (correlation 0.9 across the
// runs). Dividing by the chain's time cancels that drift; what is left is
// the work the program does, plus the cache and memory contention the
// clock does not show.
//
// A run calibrates once before its first repetition and after every
// repetition, and scales each repetition's CPU times by calRefS over the
// mean of the two calibrations around it. The host can change speed within
// a run — one run's calibrations ranged from 20 ms to 39 ms, clustered near
// 24 ms and 28 ms — and the calibrations around a repetition follow such a
// change where one figure for the whole run cannot. The raw CPU and
// wall-clock figures are printed beside the scaled ones.

// calIters is the length of the calibration chain.
const calIters = 10_000_000

// calRefS is the calibration chain's CPU time at the reference clock: its
// median on the 2-vCPU Xeon the recorded figures come from. It is fixed,
// so a run on a faster or slower host still reports the same unit.
const calRefS = 0.0270

// calSink keeps the chain's result live so the compiler cannot drop it.
var calSink float64

// calibrate runs a chain of dependent floating-point multiply-adds, whose
// length in cycles is fixed by the instructions' latency, and returns the
// CPU time the calling thread spent on it.
func calibrate() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadTime()
	x := calSink + 1
	for i := 0; i < calIters; i++ {
		x = x*1.0000001 + 1e-9
	}
	calSink = x
	return threadTime() - t0
}

// threadTime returns the calling thread's user+system CPU time, so that
// the runtime's background work on other threads does not count; where
// the thread's time is not available it falls back to the process's.
func threadTime() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD on Linux
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return cpuTime()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockScale is the factor that converts CPU seconds measured between two
// calibrations to seconds at the reference clock: calRefS over the mean of
// the two.
func clockScale(before, after float64) float64 {
	c := (before + after) / 2
	if c <= 0 {
		return 1
	}
	return calRefS / c
}
