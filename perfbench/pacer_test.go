package main

import (
	"testing"
	"time"
)

func TestOpenLoopDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	p := openLoop{start: start, rate: 2000}
	if got := p.due(0); !got.Equal(start) {
		t.Fatalf("due(0) = %v, want the start %v", got, start)
	}
	if got := p.due(2000); !got.Equal(start.Add(time.Second)) {
		t.Fatalf("due(2000) = %v, want start+1s", got)
	}
	for i := 1; i < 10000; i++ {
		if gap := p.due(i).Sub(p.due(i - 1)); gap != 500*time.Microsecond {
			t.Fatalf("due(%d)-due(%d) = %v, want 500µs", i, i-1, gap)
		}
	}
	// A rate that does not divide a second: due times stay within a
	// nanosecond of i/rate and never go backwards.
	q := openLoop{start: start, rate: 3}
	for i := 1; i < 1000; i++ {
		exact := float64(i) / 3 * 1e9
		got := float64(q.due(i).Sub(start))
		if got-exact > 1 || exact-got > 1 {
			t.Fatalf("due(%d) = %vns after start, want %vns", i, got, exact)
		}
		if !q.due(i).After(q.due(i - 1)) {
			t.Fatalf("due(%d) is not after due(%d)", i, i-1)
		}
	}
}

func TestWaitUntilNeverEarly(t *testing.T) {
	var worst time.Duration
	for i := 0; i < 50; i++ {
		due := time.Now().Add(time.Duration(50+i*20) * time.Microsecond)
		waitUntil(due)
		late := time.Since(due)
		if late < 0 {
			t.Fatalf("waitUntil returned %v before its due time", -late)
		}
		worst = max(worst, late)
	}
	// Loose: a loaded machine can deschedule the test, but a waiter
	// that overshoots like time.Sleep's 1 ms tick on every call is a bug.
	if worst > 50*time.Millisecond {
		t.Fatalf("worst lateness %v", worst)
	}
}

func TestWaitUntilPast(t *testing.T) {
	due := time.Now().Add(-time.Second)
	t0 := time.Now()
	waitUntil(due)
	if d := time.Since(t0); d > 10*time.Millisecond {
		t.Fatalf("waiting for a past due time took %v", d)
	}
}
