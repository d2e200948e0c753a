package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1},
	} {
		if got := quantile(append([]float64(nil), xs...), tc.q); got != tc.want {
			t.Errorf("quantile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

func TestQuantileWithInfiniteSamples(t *testing.T) {
	// Failed requests read +Inf: they sort last and take the tail first.
	xs := []float64{1, 2, math.Inf(1), 3}
	if got := quantile(append([]float64(nil), xs...), 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := quantile(xs, 1); !math.IsInf(got, 1) {
		t.Errorf("p100 = %v, want +Inf", got)
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{100, 0.9, 10, true},
		{99, 0.9, 9, false},
		{97, 0.9, 9, false},  // one ingest replay
		{194, 0.9, 19, true}, // two
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{20000, 0.99, 200, true},
		{20, 0.5, 10, true},
		{19, 0.5, 9, false},
		{0, 0.5, -1, false},
	} {
		if tc.n > 0 {
			if got := beyond(tc.n, tc.q); got != tc.beyond {
				t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.beyond)
			}
		}
		if got := tailOK(tc.n, tc.q); got != tc.ok {
			t.Errorf("tailOK(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.ok)
		}
	}
}

func TestBeyondCountsSamplesAboveTheQuantile(t *testing.T) {
	// Brute force: with distinct samples, the number strictly above the
	// reported quantile is what beyond predicts.
	for n := 1; n <= 300; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			v := quantile(append([]float64(nil), xs...), q)
			above := 0
			for _, x := range xs {
				if x > v {
					above++
				}
			}
			if above != beyond(n, q) {
				t.Fatalf("n=%d q=%v: %d samples above the quantile, beyond says %d", n, q, above, beyond(n, q))
			}
		}
	}
}
