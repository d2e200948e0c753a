package main

import (
	"testing"
	"time"
)

// sp builds a span for the self-time tests.
func sp(id, parent, start, end int64) span {
	return span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		sp(1, 0, 0, 100),
		sp(2, 1, 10, 30),
		sp(3, 2, 15, 20),
		sp(4, 1, 50, 60),
	}
	want := []int64{70, 15, 5, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Without overlap, self times add back up to the root.
	var total int64
	for _, s := range got {
		total += s
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// Two concurrent children covering [10,50] ∪ [30,70] = 60 of the
	// parent's 100; a third inside the union adds nothing.
	spans := []span{
		sp(1, 0, 0, 100),
		sp(2, 1, 10, 50),
		sp(3, 1, 30, 70),
		sp(4, 1, 35, 45),
	}
	if got := selfTimes(spans)[0]; got != 40 {
		t.Errorf("parent self = %d, want 40", got)
	}
}

func TestSelfTimesClipsChildrenToParent(t *testing.T) {
	// A child stamped past its parent's end (a concurrent callee that
	// outlived its caller) only covers the part inside the parent.
	spans := []span{
		sp(1, 0, 0, 100),
		sp(2, 1, 80, 150),
		sp(3, 1, -20, 10),
	}
	if got := selfTimes(spans)[0]; got != 70 {
		t.Errorf("parent self = %d, want 70", got)
	}
}

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {10, 20}}, 20},
		{[][2]int64{{20, 30}, {0, 10}}, 20},
		{[][2]int64{{0, 10}, {2, 4}, {5, 12}, {20, 21}}, 13},
	} {
		if got := unionLen(tc.iv); got != tc.want {
			t.Errorf("unionLen(%v) = %d, want %d", tc.iv, got, tc.want)
		}
	}
}

func TestSelfAllocs(t *testing.T) {
	spans := []span{
		{ID: 1, Alloc: 1000},
		{ID: 2, Parent: 1, Alloc: 300},
		{ID: 3, Parent: 1, Alloc: -1}, // not sampled
		{ID: 4, Parent: 2, Alloc: 400},
	}
	want := []int64{700, 0, 0, 400} // child 2's 300 < its child's 400: floored
	got := selfAllocs(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("selfAlloc[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.begin("root")
	tr.begin("a")
	tr.begin("a.inner")
	time.Sleep(time.Millisecond)
	tr.end()
	tr.end()
	tr.begin("b")
	tr.end()
	tr.end()
	spans := tr.snapshot()
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	root, a, inner, b := byName["root"], byName["a"], byName["a.inner"], byName["b"]
	if root.Parent != 0 || a.Parent != root.ID || inner.Parent != a.ID || b.Parent != root.ID {
		t.Fatalf("wrong parents: %+v", spans)
	}
	if inner.Start < a.Start || inner.End > a.End || a.End > b.Start || b.End > root.End {
		t.Fatalf("spans out of order: %+v", spans)
	}
	if inner.dur() < int64(time.Millisecond) {
		t.Fatalf("inner span lasted %dns, slept 1ms", inner.dur())
	}
	lt := totalsByName(spans)
	var self float64
	for _, s := range lt.selfS {
		self += s
	}
	if d := self - float64(root.dur())/1e9; d > 1e-12 || d < -1e-12 {
		t.Fatalf("self times sum to %vs, root lasted %vs", self, float64(root.dur())/1e9)
	}
}

func TestNilTracerIsFree(t *testing.T) {
	var tr *tracer
	tr.begin("x")
	if d := tr.end(); d != 0 {
		t.Fatalf("nil tracer end = %v", d)
	}
	tr.add(span{})
	if id := tr.newID(); id != 0 {
		t.Fatalf("nil tracer newID = %d", id)
	}
}
