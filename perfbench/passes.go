package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// passSet is the wall time, CPU time and GC pause of each measured
// pass.
type passSet []phase

func (ps passSet) walls() (out []float64) {
	for _, p := range ps {
		out = append(out, p.wall.Seconds())
	}
	return out
}

func (ps passSet) cpus() (out []float64) {
	for _, p := range ps {
		out = append(out, p.cpu.Seconds())
	}
	return out
}

func (ps passSet) peaks() (out []float64) {
	for _, p := range ps {
		out = append(out, p.peakMB)
	}
	return out
}

func (ps passSet) totalWall() (d time.Duration) {
	for _, p := range ps {
		d += p.wall
	}
	return d
}

func (ps passSet) totalPause() (d time.Duration) {
	for _, p := range ps {
		d += p.pause
	}
	return d
}

// measurePasses runs pass n times, metering each, and runs check (if
// not nil) after each pass, outside its meter.
func measurePasses(n int, pass func() error, check func() error) (passSet, error) {
	var ps passSet
	for i := 0; i < n; i++ {
		m := startMeter()
		if err := pass(); err != nil {
			return nil, err
		}
		ps = append(ps, m.stop())
		if check != nil {
			if err := check(); err != nil {
				return nil, err
			}
		}
	}
	return ps, nil
}

// setPassMetrics sets the end-to-end metrics of a closed-loop workload
// whose unit of work is a pass over `contacts` input contacts. Memory
// is each pass's own peak, so checks between passes do not count.
func setPassMetrics(rep *report, ps passSet, contacts float64) {
	walls := ps.walls()
	rep.set("wall_s", median(walls))
	rep.set("cpu_s", median(ps.cpus()))
	rep.set("throughput_per_s", contacts/median(walls))
	rep.set("peak_rss_mb", median(ps.peaks()))
}

// selfTimeTolerance is how far the per-layer self times may sum from
// the traced wall time, as a share of it. The spans are stamped with
// the same monotonic clock as the wall time and the root span covers
// each pass, so only the few microseconds between the meter and the
// root span's stamps separate them.
const selfTimeTolerance = 0.01

// setTracedMetrics sets the metrics every traced closed-loop run
// shares: traced wall, overhead against the plain passes, the share of
// time outside any layer call, GC pause, and the self-time check.
func setTracedMetrics(rep *report, plain, traced passSet, lt layerTotals, root string) {
	wall := traced.totalWall().Seconds()
	rep.set("trace.wall_s", median(traced.walls()))
	rep.set("trace.overhead_ratio", median(traced.walls())/median(plain.walls())-1)
	rep.set("trace.unattributed_ratio", lt.selfS[root]/wall)
	rep.set("runtime.gc_pause_s", traced.totalPause().Seconds()/float64(len(traced)))
	self := 0.0
	for _, s := range lt.selfS {
		self += s
	}
	rep.check(math.Abs(self-wall) <= selfTimeTolerance*wall,
		"layer self times sum to %.4fs, traced wall is %.4fs", self, wall)
}

// writeRunTrace writes the traced run's spans and counters.
func writeRunTrace(cfg runConfig, spans []span, counters map[string]int64, rep *report) error {
	path, err := writeTrace(cfg.outDir, &traceFile{
		Workload: cfg.workload, Seed: cfg.seed, GOMAXPROCS: gomaxprocs(),
		Spans: spans, Counters: counters, Metrics: rep.metrics,
	})
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(spans), path)
	return nil
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
