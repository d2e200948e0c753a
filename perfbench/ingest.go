package main

import (
	"fmt"
	"math"
	"time"

	"opportunet/internal/core"
	"opportunet/internal/experiments"
	"opportunet/internal/rng"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

// The ingest workload: one writer replays quick Infocom06 as a live
// feed, in epochs of ingestEpoch contacts sorted by begin time. Each
// epoch appends to a timeline.Appender, takes a snapshot, extends the
// incremental engine over it and reads a fixed sample of paths from the
// fresh result.
const (
	ingestEpoch   = 250
	ingestReads   = 64
	ingestNominal = 9.0 // seconds one replay takes on a 2-core x86-64 box
	ingestSetups  = 9
	// ingestMinReplays keeps the p90 epoch latency honest: one replay
	// has ~97 epochs, nine beyond its p90; two have nineteen.
	ingestMinReplays = 2
)

// ingestInput is the generated feed plus the read sample.
type ingestInput struct {
	feed    *trace.Trace // contacts sorted by begin time
	meta    *trace.Trace // the header an appender is built from
	sources []trace.NodeID
	reads   []pathRead
}

// pathRead is one sampled delivery query.
type pathRead struct {
	src, dst trace.NodeID
	t        float64
}

func newIngestInput(seed uint64) (*ingestInput, time.Duration, error) {
	sets, gen, err := genDatasets([]string{experiments.Infocom06}, seed)
	if err != nil {
		return nil, 0, err
	}
	feed := sets[experiments.Infocom06]
	in := &ingestInput{
		feed: feed,
		meta: &trace.Trace{Name: feed.Name, Granularity: feed.Granularity,
			Start: feed.Start, End: feed.End, Kinds: feed.Kinds},
		sources: feed.InternalNodes(),
	}
	r := rng.New(seed ^ 0x5eed)
	for i := 0; i < ingestReads; i++ {
		src := in.sources[r.Intn(len(in.sources))]
		dst := src
		for dst == src {
			dst = in.sources[r.Intn(len(in.sources))]
		}
		in.reads = append(in.reads, pathRead{src, dst, r.Uniform(feed.Start, feed.End)})
	}
	return in, gen, nil
}

// replayOut is what one replay left behind.
type replayOut struct {
	res      *core.Result
	view     *timeline.View
	epochsMS []float64 // first append to last read, per epoch
	delivery float64   // sum of finite delivery times read
}

// replay feeds the whole trace through a fresh appender and engine.
func replay(in *ingestInput, tr *tracer) (*replayOut, error) {
	tr.begin("bench.replay")
	defer tr.end()
	ap, err := timeline.NewAppender(in.meta, 0)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(core.Options{Sources: in.sources})
	out := &replayOut{}
	cs := in.feed.Contacts
	for i := 0; i < len(cs); i += ingestEpoch {
		t0 := time.Now()
		tr.begin("timeline.append")
		err := ap.Append(cs[i:min(i+ingestEpoch, len(cs))])
		tr.end()
		if err != nil {
			return nil, err
		}
		tr.begin("timeline.snapshot")
		out.view = ap.Snapshot().All()
		tr.end()
		tr.begin("core.extend")
		out.res, err = eng.Extend(out.view)
		tr.end()
		if err != nil {
			return nil, err
		}
		tr.begin("core.read")
		for _, q := range in.reads {
			if d := out.res.Frontier(q.src, q.dst, 0).Del(q.t); !math.IsInf(d, 1) {
				out.delivery += d
			}
		}
		tr.end()
		out.epochsMS = append(out.epochsMS, float64(time.Since(t0))/1e6)
	}
	return out, nil
}

// checkBounds are the hop bounds whose frontiers the ingest check
// compares, as the incremental engine's own tests do.
var checkBounds = []int{1, 2, 3, 0}

// checkReplay compares a replay's final incremental result with a
// one-shot computation over the same final view: the stream-check
// oracle, in its frontier form. Every computed (source, destination)
// pair must have the same minimal hop count and the same canonical
// frontier at each checked hop bound. It is one check per pair.
func checkReplay(rep *report, got, want *core.Result, sources []trace.NodeID) {
	for _, src := range sources {
		for dst := 0; dst < want.NumNodes; dst++ {
			d := trace.NodeID(dst)
			if d == src {
				continue
			}
			rep.check(samePair(got, want, src, d), "ingest: pair (%d, %d): incremental result differs from one-shot", src, d)
		}
	}
}

func samePair(got, want *core.Result, src, dst trace.NodeID) bool {
	if got.MinHops(src, dst) != want.MinHops(src, dst) {
		return false
	}
	for _, b := range checkBounds {
		g, w := got.Frontier(src, dst, b).Entries, want.Frontier(src, dst, b).Entries
		if len(g) != len(w) {
			return false
		}
		for i := range g {
			if g[i] != w[i] {
				return false
			}
		}
	}
	return true
}

func runIngest(cfg runConfig) (*report, error) {
	rep := newReport()
	var in *ingestInput
	var setupS, genS []float64
	for i := 0; i < ingestSetups; i++ {
		t0 := time.Now()
		var gen time.Duration
		var err error
		if in, gen, err = newIngestInput(cfg.seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		genS = append(genS, gen.Seconds())
	}

	// Each replay is checked right after it, outside its meter; the
	// one-shot reference is computed once, from the first final view.
	var out *replayOut
	var oneShot *core.Result
	var epochsMS, reads []float64
	replays := cfg.passes(ingestNominal, ingestMinReplays)
	pass := func(tr *tracer) func() error {
		return func() error {
			var err error
			out, err = replay(in, tr)
			return err
		}
	}
	check := func() error {
		epochsMS = append(epochsMS, out.epochsMS...)
		reads = append(reads, out.delivery)
		if oneShot == nil {
			var err error
			if oneShot, err = core.ComputeView(out.view, core.Options{Sources: in.sources}); err != nil {
				return fmt.Errorf("one-shot reference: %w", err)
			}
		}
		checkReplay(rep, out.res, oneShot, in.sources)
		out = nil
		return nil
	}
	plain, err := measurePasses(replays, pass(nil), check)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", median(setupS))
	setPassMetrics(rep, plain, float64(len(in.feed.Contacts)))
	rep.check(tailOK(len(epochsMS), 0.9), "ingest: %d epochs leave fewer than %d beyond p90", len(epochsMS), minBeyond)
	rep.set("p50_ms", quantile(epochsMS, 0.5))
	rep.set("tail_ms", quantile(epochsMS, 0.9))

	if cfg.traced {
		reg := wireRegistry()
		tr := newTracer()
		traced, err := measurePasses(replays, reg.counting(pass(tr)), check)
		reg.unwire()
		if err != nil {
			return nil, err
		}
		spans := tr.snapshot()
		lt := totalsByName(spans)
		n := float64(replays)
		extend := durationsMS(spans, "core.extend")
		rep.set("core.extend_p50_ms", quantile(extend, 0.5))
		rep.set("core.extend_p90_ms", quantile(extend, 0.9))
		rep.set("core.read_ms", quantile(durationsMS(spans, "core.read"), 0.5))
		rep.set("timeline.append_ms", 1e3*lt.selfS["timeline.append"]/n)
		rep.set("timeline.snapshot_ms", 1e3*lt.selfS["timeline.snapshot"]/n)
		rep.set("tracegen.generate_s", median(genS))
		setTracedMetrics(rep, plain, traced, lt, "bench.replay")
		d := reg.deltas()
		setCounterMetrics(rep, d, replays, traced.totalWall())
		rep.check(d["core_extend_fallbacks_total"] == 0, "ingest: %d extends fell back to a full recompute", d["core_extend_fallbacks_total"])
		if err := writeRunTrace(cfg, spans, d, rep); err != nil {
			return nil, err
		}
	}
	for i, r := range reads[1:] {
		rep.check(r == reads[0], "ingest: replay %d read %v in total, replay 0 read %v", i+1, r, reads[0])
	}
	return rep, nil
}
