package main

import (
	"runtime"
	"syscall"
	"time"
)

// openLoop is the serve workload's arrival schedule: request i is due
// at start + i/rate whether or not earlier requests have finished, and
// its latency is measured from that due time, so a stall also charges
// the wait it imposes on every request due behind it.
type openLoop struct {
	start time.Time
	rate  float64 // requests per second
}

// due returns when request i is due.
func (p openLoop) due(i int) time.Time {
	return p.start.Add(time.Duration(float64(i) * float64(time.Second) / p.rate))
}

// spinWindow is how far before a due time the pacer stops sleeping and
// starts yielding in a loop. time.Sleep cannot pace this workload: the
// runtime rounds sub-millisecond waits up to the netpoller's 1 ms tick,
// which made requests ~0.8 ms late, more than the latency being
// measured. A kernel nanosleep wakes within ~50-100 µs (the default
// timer slack plus the syscall), and the spin covers the rest.
const spinWindow = 100 * time.Microsecond

// waitUntil returns at or just after due.
func waitUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}
