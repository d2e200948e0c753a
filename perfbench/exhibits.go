package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"opportunet/internal/analysis"
	"opportunet/internal/core"
	"opportunet/internal/experiments"
	"opportunet/internal/forward"
	"opportunet/internal/rng"
	"opportunet/internal/stats"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

// The exhibits workload: one caller runs the public calls behind
// Figure 9, Figure 10 and the forwarding evaluation on the quick
// datasets, in a closed loop, with the parameters the experiment
// suite's quick mode uses.
var (
	exhibitsSets = []string{experiments.Infocom05, experiments.RealityMining,
		experiments.HongKong, experiments.Infocom06Day2, experiments.Infocom06}
	fig9Sets    = []string{experiments.Infocom05, experiments.RealityMining, experiments.HongKong}
	fwdSets     = []string{experiments.Infocom05, experiments.Infocom06, experiments.HongKong, experiments.RealityMining}
	fig9Bounds  = []int{1, 2, 3, 4, 5, 6, analysis.Unbounded}
	fig10Bounds = []int{1, 2, 3, 5, analysis.Unbounded}
)

const (
	exhibitsEps     = 0.01
	exhibitsNominal = 10.0 // seconds one pass takes on a 2-core x86-64 box
	exhibitsSetups  = 9
	fwdMessages     = 150
	removalReps     = 3
	selfCheckProbes = 25
)

// panel is one exhibit panel's output: its delay CDFs (hop bounds
// ascending, unbounded last) and diameters.
type panel struct {
	name  string
	cdfs  []analysis.DelayCDF
	diams []int
}

// exhibitsOut is what one pass produced.
type exhibitsOut struct {
	studies     map[string]*analysis.Study
	panels      []panel
	fwd         map[string][]forward.Stats
	contacts    int    // input contacts summed over the exhibit calls
	fingerprint string // every number the pass computed
}

// study builds a dataset's full path computation the way the
// experiment suite's Config.Study does: the timeline index, then the
// engine.
func study(t *trace.Trace, tr *tracer) (*timeline.Timeline, *analysis.Study, error) {
	tr.begin("core.compute")
	defer tr.end()
	tl := timeline.New(t)
	st, err := analysis.NewStudyView(tl.All(), core.Options{})
	if err != nil {
		return nil, nil, err
	}
	st.Trace = t
	return tl, st, nil
}

// exhibitsPass runs one pass of the three exhibits.
func exhibitsPass(in map[string]*trace.Trace, seed uint64, tr *tracer) (*exhibitsOut, error) {
	tr.begin("bench.pass")
	defer tr.end()
	out := &exhibitsOut{studies: map[string]*analysis.Study{}, fwd: map[string][]forward.Stats{}}
	var fp strings.Builder

	// Figure 9: delay CDFs per hop bound and the diameter at ε and 5ε.
	for _, name := range fig9Sets {
		t := in[name]
		_, st, err := study(t, tr)
		if err != nil {
			return nil, err
		}
		hi := math.Min(7*86400, st.View.Duration())
		if hi <= 120 {
			hi = st.View.Duration()
		}
		grid := stats.LogSpace(120, hi, 40)
		tr.begin("analysis.delaycdf")
		cdfs := st.DelayCDFs(fig9Bounds, grid)
		tr.end()
		tr.begin("analysis.diameter")
		d1, worst := st.Diameter(exhibitsEps, grid)
		d5, _ := st.Diameter(5*exhibitsEps, grid)
		tr.end()
		if err := st.Err(); err != nil {
			return nil, err
		}
		out.studies[name] = st
		out.panels = append(out.panels, panel{name, cdfs, []int{d1, d5}})
		out.contacts += len(t.Contacts)
		fmt.Fprintf(&fp, "%s %v %d %v %d\n", name, cdfs, d1, worst, d5)
	}

	// Figure 10: Infocom06 day 2, whole and with 90% and 99% of its
	// contacts removed at random.
	t := in[experiments.Infocom06Day2]
	tl, st, err := study(t, tr)
	if err != nil {
		return nil, err
	}
	grid := stats.LogSpace(120, tl.All().Duration(), 30)
	tr.begin("analysis.delaycdf")
	cdfs := st.DelayCDFs(fig10Bounds, grid)
	tr.end()
	tr.begin("analysis.diameter")
	d, _ := st.Diameter(exhibitsEps, grid)
	tr.end()
	if err := st.Err(); err != nil {
		return nil, err
	}
	out.studies[experiments.Infocom06Day2] = st
	out.panels = append(out.panels, panel{"fig10 p=0", cdfs, []int{d}})
	out.contacts += len(t.Contacts)
	fmt.Fprintf(&fp, "fig10 %v %d\n", cdfs, d)
	for _, p := range []float64{0.9, 0.99} {
		tr.begin("analysis.removal")
		cdfs, diams, err := analysis.RandomRemovalStudyView(tl.All(), p, removalReps, seed+uint64(p*100),
			core.Options{}, fig10Bounds, grid, exhibitsEps)
		tr.end()
		if err != nil {
			return nil, err
		}
		out.panels = append(out.panels, panel{fmt.Sprintf("fig10 p=%g", p), cdfs, diams})
		fmt.Fprintf(&fp, "fig10 p=%g %v %v\n", p, cdfs, diams)
	}

	// Forwarding: every scheme over the same messages on each dataset.
	r := rng.New(seed + 7)
	for _, name := range fwdSets {
		t := in[name]
		ttl := math.Min(6*3600, t.Duration()/4)
		tr.begin("forward.evaluate")
		ev := forward.NewEvaluator(t)
		res, err := forward.Evaluate(ev, ev.StandardAlgorithms(6), fwdMessages, ttl, r.Split())
		tr.end()
		if err != nil {
			return nil, err
		}
		out.fwd[name] = res
		out.contacts += len(t.Contacts)
		fmt.Fprintf(&fp, "forward %s %v\n", name, res)
	}
	out.fingerprint = fp.String()
	return out, nil
}

func runExhibits(cfg runConfig) (*report, error) {
	rep := newReport()
	var in map[string]*trace.Trace
	var setupS, genS []float64
	for i := 0; i < exhibitsSetups; i++ {
		t0 := time.Now()
		var gen time.Duration
		var err error
		if in, gen, err = genDatasets(exhibitsSets, cfg.seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		genS = append(genS, gen.Seconds())
	}

	// Each pass is checked right after it, outside its meter, and then
	// dropped: its studies hold most of the heap.
	passes := cfg.passes(exhibitsNominal, 1)
	var cur *exhibitsOut
	var prints []string
	contacts := 0
	pass := func(tr *tracer) func() error {
		return func() error {
			var err error
			cur, err = exhibitsPass(in, cfg.seed, tr)
			return err
		}
	}
	check := func() error {
		contacts = cur.contacts
		prints = append(prints, cur.fingerprint)
		checkExhibits(rep, cur, cfg.seed)
		cur = nil
		return nil
	}
	plain, err := measurePasses(passes, pass(nil), check)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", median(setupS))
	setPassMetrics(rep, plain, float64(contacts))
	// The "request" of this closed loop is one whole pass. A run has too
	// few passes for any percentile above the median to have ten samples
	// beyond it, so both latencies report the median pass; the slowest of
	// two passes spread nearly twice as much from run to run.
	rep.set("p50_ms", 1e3*median(plain.walls()))
	rep.set("tail_ms", 1e3*median(plain.walls()))

	if cfg.traced {
		reg := wireRegistry()
		tr := newTracer()
		traced, err := measurePasses(passes, reg.counting(pass(tr)), check)
		reg.unwire()
		if err != nil {
			return nil, err
		}
		spans := tr.snapshot()
		lt := totalsByName(spans)
		n := float64(passes)
		rep.set("forward.evaluate_s", lt.selfS["forward.evaluate"]/n)
		rep.set("forward.alloc_mb", lt.allocMB["forward.evaluate"]/n)
		rep.set("analysis.delaycdf_s", lt.selfS["analysis.delaycdf"]/n)
		rep.set("analysis.diameter_s", lt.selfS["analysis.diameter"]/n)
		rep.set("analysis.removal_s", lt.selfS["analysis.removal"]/n)
		rep.set("analysis.alloc_mb", (lt.allocMB["analysis.delaycdf"]+lt.allocMB["analysis.diameter"]+lt.allocMB["analysis.removal"])/n)
		rep.set("core.compute_s", lt.selfS["core.compute"]/n)
		rep.set("core.alloc_mb", lt.allocMB["core.compute"]/n)
		rep.set("tracegen.generate_s", median(genS))
		setTracedMetrics(rep, plain, traced, lt, "bench.pass")
		setCounterMetrics(rep, reg.deltas(), passes, traced.totalWall())
		if err := writeRunTrace(cfg, spans, reg.deltas(), rep); err != nil {
			return nil, err
		}
	}

	for i, p := range prints[1:] {
		rep.check(p == prints[0], "exhibits pass %d computed different numbers than pass 0", i+1)
	}
	return rep, nil
}

// checkExhibits checks one pass's output: every study against the
// flooding oracle, and the paper's invariants on every panel.
func checkExhibits(rep *report, out *exhibitsOut, seed uint64) {
	for _, name := range append(append([]string(nil), fig9Sets...), experiments.Infocom06Day2) {
		err := out.studies[name].SelfCheck(selfCheckProbes, seed)
		rep.check(err == nil, "%s: flooding oracle: %v", name, err)
	}
	for _, p := range out.panels {
		rep.check(cdfsMonotone(p.cdfs), "%s: delay CDFs not monotone in delay and hop bound", p.name)
	}
	for _, p := range out.panels[:len(fig9Sets)] {
		rep.check(p.diams[0] >= p.diams[1], "%s: diameter at ε (%d) below diameter at 5ε (%d)", p.name, p.diams[0], p.diams[1])
	}
	for _, name := range fwdSets {
		rep.check(floodingDominates(out.fwd[name]), "%s: a forwarding scheme beat unbounded flooding: %+v", name, out.fwd[name])
	}
}

// cdfsMonotone checks two invariants of a panel: each success curve is
// non-decreasing in the delay budget, and allowing more hops never
// lowers success (curves come in ascending hop bound, unbounded last).
func cdfsMonotone(cdfs []analysis.DelayCDF) bool {
	const tol = 1e-12
	for i, c := range cdfs {
		for j := 1; j < len(c.Success); j++ {
			if c.Success[j] < c.Success[j-1]-tol {
				return false
			}
		}
		if i == 0 {
			continue
		}
		for j, s := range c.Success {
			if s < cdfs[i-1].Success[j]-tol {
				return false
			}
		}
	}
	return len(cdfs) > 0
}

// floodingDominates checks the forwarding invariant: unbounded
// epidemic flooding (the first scheme) delivers every message any
// scheme delivers, so no scheme has a higher success rate.
func floodingDominates(res []forward.Stats) bool {
	if len(res) == 0 {
		return false
	}
	for _, s := range res[1:] {
		if s.SuccessRate > res[0].SuccessRate {
			return false
		}
	}
	return true
}
