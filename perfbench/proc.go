package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// allocSample reads the process's cumulative heap allocation without
// stopping the world.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes returns the bytes allocated on the heap since the
// process started.
func heapAllocBytes() int64 {
	metrics.Read(allocSample)
	return int64(allocSample[0].Value.Uint64())
}

// cpuTime returns the user+system CPU time the process has used: client
// and server together, since both run in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns the freed heap to the kernel and makes it forget
// the process's resident-set peak, so that peakRSSMB afterwards covers
// only what runs in between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's resident-set peak (VmHWM) since the
// last resetPeakRSS, in MiB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// gcPause returns the total stop-the-world GC pause time so far.
func gcPause() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// meter measures one timed phase: wall time, process CPU time, GC
// pause and peak resident memory, from start to stop.
type meter struct {
	wall0    time.Time
	cpu0     time.Duration
	pause0   time.Duration
	resetErr error
}

// startMeter starts a phase from a collected heap with the freed memory
// returned, so one phase's garbage neither slows the next nor stacks
// onto its peak memory.
func startMeter() meter {
	err := resetPeakRSS()
	return meter{resetErr: err, pause0: gcPause(), cpu0: cpuTime(), wall0: time.Now()}
}

// phase is what one meter saw. peakMB is NaN when it could not be read,
// which fails the run when reported.
type phase struct {
	wall, cpu, pause time.Duration
	peakMB           float64
}

func (m meter) stop() phase {
	wall := time.Since(m.wall0)
	ph := phase{wall: wall, cpu: cpuTime() - m.cpu0, pause: gcPause() - m.pause0, peakMB: math.NaN()}
	if m.resetErr == nil {
		if peak, err := peakRSSMB(); err == nil {
			ph.peakMB = peak
		}
	}
	return ph
}
