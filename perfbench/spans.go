package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside: name,
// start, end and the span that caused it. Times are nanoseconds since
// the tracer's origin (monotonic clock). Alloc is the bytes the whole
// process allocated while the span was open, or -1 where it was not
// sampled (concurrent spans, where it would not be attributable).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  int64  `json:"alloc_bytes"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span of a traced run in memory until the run ends.
// A nil *tracer is the disabled state: every method is a no-op, so the
// plain run pays one nil check per call site. obs.SpanLog does not
// serve here: it names spans by slash path and keeps per-path totals,
// while self times need every span with its parent, across goroutines
// (a handler span under the client span that caused it).
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	nextID int64
	stack  []openSpan // open spans of the single caller, innermost last
}

// openSpan is a span begun by the single caller and not yet ended.
type openSpan struct {
	id, parent int64
	name       string
	start      int64
	alloc0     int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now returns nanoseconds since the tracer's origin.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.origin)) }

// newID reserves a span ID for a span recorded later with add.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// begin opens a span of the single caller, nested under the innermost
// open one. Only one goroutine may use begin/end.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	var parent int64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	id := t.newID()
	alloc0 := heapAllocBytes()
	t.stack = append(t.stack, openSpan{id: id, parent: parent, name: name, start: t.now(), alloc0: alloc0})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	end := t.now()
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.add(span{ID: o.id, Parent: o.parent, Name: o.name, Start: o.start, End: end, Alloc: heapAllocBytes() - o.alloc0})
	return time.Duration(end - o.start)
}

// add records a finished span; safe for concurrent use.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may nest or
// overlap one another (concurrent calls); the covered part is the
// length of the union of their intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[s.ID] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		self[i] = s.dur() - unionLen(iv)
	}
	return self
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			if x[1] > curB {
				curB = x[1]
			}
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfAllocs returns each span's own allocation: its total minus its
// children's totals, floored at 0. Spans without a sample count as 0.
func selfAllocs(spans []span) []int64 {
	idx := make(map[int64]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.Alloc > 0 {
			self[i] += s.Alloc
		}
	}
	for _, s := range spans {
		if p, ok := idx[s.Parent]; ok && s.Alloc > 0 {
			self[p] -= s.Alloc
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// layerTotals sums self time (seconds) and self allocation (MB) by span
// name.
type layerTotals struct {
	selfS   map[string]float64
	allocMB map[string]float64
}

func totalsByName(spans []span) layerTotals {
	st, sa := selfTimes(spans), selfAllocs(spans)
	lt := layerTotals{selfS: map[string]float64{}, allocMB: map[string]float64{}}
	for i, s := range spans {
		lt.selfS[s.Name] += float64(st[i]) / 1e9
		lt.allocMB[s.Name] += float64(sa[i]) / (1 << 20)
	}
	return lt
}

// durationsMS returns the durations, in milliseconds, of the spans
// with the given name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// traceFile is the traced run's output: every span plus the counters
// the program's own registry collected over the traced phase.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Spans      []span             `json:"spans"`
	SelfNS     map[string]int64   `json:"self_ns"`
	Counters   map[string]int64   `json:"counters"`
	Metrics    map[string]float64 `json:"metrics"`
}

// writeTrace writes the trace file into dir as <workload>-seed<N>.json.
func writeTrace(dir string, tf *traceFile) (string, error) {
	self := selfTimes(tf.Spans)
	tf.SelfNS = map[string]int64{}
	for i, s := range tf.Spans {
		tf.SelfNS[s.Name] += self[i]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", tf.Workload, tf.Seed))
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
