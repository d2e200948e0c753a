package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opportunet/internal/analysis"
	"opportunet/internal/core"
	"opportunet/internal/experiments"
	"opportunet/internal/loadgen"
	"opportunet/internal/server"
	"opportunet/internal/trace"
)

// The serve workload: an in-process daemon with cmd/opportunetd's
// defaults serving quick Infocom05 on loopback TCP, driven by an open
// loop at serveRate requests per second over the loadgen schedule's
// default 8:1:1 path/diameter/delaycdf mix. After warm-up every answer
// is a warm read, so the workload measures net/http, the server
// handler, core frontier lookups and analysis cache hits; it computes
// no paths.
const (
	serveRate       = 2000.0
	serveSetups     = 3
	serveWarmPaths  = 1000
	serveAllocReqs  = 2000
	servePoints     = 60   // opportunetd -points default
	serveEps        = 0.01 // opportunetd -eps default
	serveSpanHeader = "X-Perfbench-Span"
)

// A run sends round(seconds/servePassSeconds) open-loop passes, at
// least serveMinPasses, and reports the median pass. At the same load
// one pass's median latency and CPU time can sit 30% above the next
// one's, the two moving together as the runtime's placement of client
// and server goroutines on threads changes, so a run samples that
// placement many times.
const (
	servePassSeconds = 1.0
	serveMinPasses   = 10
)

// serveConfig is cmd/opportunetd's default server configuration; the
// traced run adds an access log.
func serveConfig(accessLog io.Writer) server.Config {
	return server.Config{
		MaxInflight: 4,
		MaxQueue:    16,
		QueueWait:   2 * time.Second,
		MaxDeadline: 30 * time.Second,
		Recorder:    256,
		AccessLog:   accessLog,
	}
}

// daemon is one listening server and the means to stop it.
type daemon struct {
	base string
	stop func()
}

// listen serves h on a fresh loopback port, the way Server.Serve does:
// a 5 s header timeout and every request context under one cancellable
// base context. The traced daemon needs it because Server.Serve takes
// no handler wrapper; the plain one runs through Server.Serve itself
// (serveDaemon), exactly as opportunetd does.
func listen(h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	base, cancel := context.WithCancel(context.Background())
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return base },
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed once stopped
	}()
	return &daemon{base: "http://" + ln.Addr().String(), stop: func() {
		ctx, c := context.WithTimeout(context.Background(), 5*time.Second)
		defer c()
		_ = hs.Shutdown(ctx)
		cancel()
		<-done
	}}, nil
}

// serveDaemon starts srv itself on a fresh loopback port.
func serveDaemon(srv *server.Server) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.SetReady(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed once drained
	}()
	return &daemon{base: "http://" + ln.Addr().String(), stop: func() {
		srv.Drain(5 * time.Second)
		<-done
	}}, nil
}

// reqRecord is one request of the open loop. Times are nanoseconds
// since the loop's start.
type reqRecord struct {
	due, sent, done int64
	status          int // -1: transport error
	span            int64
	body            []byte // slice of the worker's arena
}

// client issues requests over conns keep-alive connections to each
// daemon it talks to, one worker goroutine per connection. A worker
// writes its request and reads the answer itself: net/http's Transport
// hands every request to a writer and a reader goroutine of the
// connection and back, and those two wake-ups added ~40 µs to a
// ~0.1 ms request.
type client struct {
	conns int
	pool  map[string][]*conn
}

func newClient(conns int) *client {
	return &client{conns: conns, pool: map[string][]*conn{}}
}

// dial returns the client's connections to base, opening them the first
// time.
func (c *client) dial(base string) ([]*conn, error) {
	if cs, ok := c.pool[base]; ok {
		return cs, nil
	}
	var cs []*conn
	for w := 0; w < c.conns; w++ {
		cn := &conn{host: strings.TrimPrefix(base, "http://")}
		if err := cn.open(); err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, cn)
	}
	c.pool[base] = cs
	return cs, nil
}

func (c *client) close() {
	for base, cs := range c.pool {
		closeAll(cs)
		delete(c.pool, base)
	}
}

func closeAll(cs []*conn) {
	for _, cn := range cs {
		cn.close()
	}
}

// conn is one keep-alive HTTP/1.1 connection. After a transport error
// or an answer that closes the connection, the next request reopens it.
type conn struct {
	host string
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func (cn *conn) open() error {
	nc, err := net.Dial("tcp", cn.host)
	if err != nil {
		return err
	}
	cn.nc, cn.br, cn.bw = nc, bufio.NewReader(nc), bufio.NewWriter(nc)
	return nil
}

func (cn *conn) close() {
	if cn.nc != nil {
		cn.nc.Close()
		cn.nc = nil
	}
}

// get issues one request for u (a path and query) and reads the whole
// body into buf.
func (cn *conn) get(u string, span int64, buf *bytes.Buffer) (int, error) {
	code, keep, err := cn.roundTrip(u, span, buf)
	if err != nil || !keep {
		cn.close()
	}
	return code, err
}

func (cn *conn) roundTrip(u string, span int64, buf *bytes.Buffer) (code int, keep bool, err error) {
	if cn.nc == nil {
		if err := cn.open(); err != nil {
			return 0, false, err
		}
	}
	w := cn.bw
	w.WriteString("GET ")
	w.WriteString(u)
	w.WriteString(" HTTP/1.1\r\nHost: ")
	w.WriteString(cn.host)
	w.WriteString("\r\n")
	if span != 0 {
		w.WriteString(serveSpanHeader + ": " + strconv.FormatInt(span, 10) + "\r\n")
	}
	w.WriteString("\r\n")
	if err := w.Flush(); err != nil {
		return 0, false, err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, false, err
	}
	return resp.StatusCode, !resp.Close, nil
}

// closedLoop issues urls back to back on every connection; any answer
// but 200 is an error.
func (c *client) closedLoop(base string, urls []string) error {
	cs, err := c.dial(base)
	if err != nil {
		return err
	}
	var (
		next atomic.Int64
		errs = make([]error, len(cs))
		wg   sync.WaitGroup
	)
	for w, cn := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(urls) {
					return
				}
				code, err := cn.get(urls[i], 0, &buf)
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("%s: status %d: %s", urls[i], code, buf.String())
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// openLoop sends urls[i] at its due time on whichever connection is
// free, every request timed from when it was due.
func (c *client) openLoop(base string, urls []string, rate float64, tr *tracer) ([]reqRecord, error) {
	cs, err := c.dial(base)
	if err != nil {
		return nil, err
	}
	recs := make([]reqRecord, len(urls))
	var next atomic.Int64
	loop := openLoop{start: time.Now().Add(10 * time.Millisecond), rate: rate}
	ns := func(t time.Time) int64 { return int64(t.Sub(loop.start)) }
	var wg sync.WaitGroup
	for _, cn := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var arena []byte
			for {
				i := int(next.Add(1) - 1)
				if i >= len(urls) {
					return
				}
				due := loop.due(i)
				waitUntil(due)
				rec := &recs[i]
				rec.span = tr.newID()
				sent := time.Now()
				code, err := cn.get(urls[i], rec.span, &buf)
				done := time.Now()
				rec.due, rec.sent, rec.done = ns(due), ns(sent), ns(done)
				rec.status = code
				if err != nil {
					rec.status = -1
				}
				// Bodies are kept for the correctness check after the
				// run; slices into the arena stay valid when it grows.
				if len(arena)+buf.Len() > cap(arena) {
					arena = make([]byte, 0, max(1<<20, 2*buf.Len()))
				}
				off := len(arena)
				arena = append(arena, buf.Bytes()...)
				rec.body = arena[off:len(arena):len(arena)]
				if tr != nil {
					tr.add(span{ID: rec.span, Name: "http.client", Start: tr.at(sent), End: tr.at(done), Alloc: -1})
				}
			}
		}()
	}
	wg.Wait()
	return recs, nil
}

// traceHandler records a span per request around the server's handler,
// parented to the client span named in the request header.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := tr.now()
		h.ServeHTTP(w, r)
		end := tr.now()
		parent, _ := strconv.ParseInt(r.Header.Get(serveSpanHeader), 10, 64)
		tr.add(span{ID: tr.newID(), Parent: parent, Name: "server." + strings.TrimPrefix(r.URL.Path, "/v1/"),
			Start: start, End: end, Alloc: -1})
	})
}

// serveRig is a warm daemon ready for the timed phase.
type serveRig struct {
	srv   *server.Server
	ds    *server.Dataset
	d     *daemon
	loadS float64
}

func (r *serveRig) stop() { r.d.stop() }

// setUp loads the dataset, starts the daemon on loopback and warms it:
// every distinct diameter and delaycdf query of the schedule once (they
// fill the curve caches) and a run of path reads (they warm the
// connections).
func setUp(tr *trace.Trace, cl *client, warmURLs []string) (*serveRig, error) {
	t0 := time.Now()
	ds, err := server.LoadDataset(tr, server.LoadOptions{Core: core.Options{Ctx: context.Background()},
		Points: servePoints, Eps: serveEps})
	if err != nil {
		return nil, err
	}
	rig := &serveRig{ds: ds, loadS: time.Since(t0).Seconds()}
	rig.srv = server.New(context.Background(), serveConfig(nil))
	rig.srv.Register(ds)
	if rig.d, err = serveDaemon(rig.srv); err != nil {
		return nil, err
	}
	if err := cl.closedLoop(rig.d.base, warmURLs); err != nil {
		rig.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return rig, nil
}

// servePass is one open-loop pass: the requests urls[first:] it sent,
// in schedule order, and what its meter saw.
type servePass struct {
	first int
	recs  []reqRecord
	ph    phase
}

// wall runs from the pass's first due time to its last response.
func (p servePass) wall() float64 {
	last := int64(0)
	for _, r := range p.recs {
		last = max(last, r.done)
	}
	return float64(last-p.recs[0].due) / 1e9
}

// latenciesMS returns each request's latency from its due time;
// requests that failed read +Inf, missing any limit.
func (p servePass) latenciesMS() []float64 {
	out := make([]float64, len(p.recs))
	for i, r := range p.recs {
		out[i] = float64(r.done-r.due) / 1e6
		if r.status != http.StatusOK {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// servePasses is the timed phase of the serve workload.
type servePasses []servePass

func (ps servePasses) phases() passSet {
	var out passSet
	for _, p := range ps {
		out = append(out, p.ph)
	}
	return out
}

func (ps servePasses) latenciesMS() (out []float64) {
	for _, p := range ps {
		out = append(out, p.latenciesMS()...)
	}
	return out
}

func (ps servePasses) latenessMS() (out []float64) {
	for _, p := range ps {
		for _, r := range p.recs {
			out = append(out, float64(r.sent-r.due)/1e6)
		}
	}
	return out
}

// runPasses sends urls in consecutive open-loop passes of passLen
// requests, each metered on its own.
func runPasses(cl *client, base string, urls []string, passLen int, tr *tracer) (servePasses, error) {
	var ps servePasses
	for first := 0; first < len(urls); first += passLen {
		m := startMeter()
		recs, err := cl.openLoop(base, urls[first:min(first+passLen, len(urls))], serveRate, tr)
		if err != nil {
			return nil, err
		}
		ps = append(ps, servePass{first: first, recs: recs, ph: m.stop()})
	}
	return ps, nil
}

func runServe(cfg runConfig) (*report, error) {
	rep := newReport()
	var tr *trace.Trace
	var genS []float64
	for i := 0; i < serveSetups; i++ {
		sets, gen, err := genDatasets([]string{experiments.Infocom05}, cfg.seed)
		if err != nil {
			return nil, err
		}
		tr = sets[experiments.Infocom05]
		genS = append(genS, gen.Seconds())
	}
	passLen := int(serveRate * servePassSeconds)
	n := cfg.passes(servePassSeconds, serveMinPasses) * passLen
	sched, err := loadgen.NewSchedule(loadgen.Config{
		Target: loadgen.Target{Dataset: tr.Name, Internal: tr.NumInternal(), Window: tr.Duration(), Points: servePoints},
		Seed:   cfg.seed,
		Phases: loadgen.Steady(serveRate, time.Duration(float64(n)/serveRate*float64(time.Second))),
	})
	if err != nil {
		return nil, err
	}
	urls := make([]string, n)
	var warmURLs []string
	seen := map[string]bool{}
	for i := range urls {
		req := sched.Request(i)
		urls[i] = req.URL
		if req.Kind != loadgen.KindPath && !seen[req.URL] {
			seen[req.URL] = true
			warmURLs = append(warmURLs, req.URL)
		}
	}
	for i := 0; i < serveWarmPaths; i++ {
		if req := sched.Request(n + i); req.Kind == loadgen.KindPath {
			warmURLs = append(warmURLs, req.URL)
		}
	}

	cl := newClient(gomaxprocs())
	defer cl.close()
	var rig *serveRig
	var setupS, loadS []float64
	for i := 0; i < serveSetups; i++ {
		if rig != nil {
			rig.stop()
		}
		t0 := time.Now()
		if rig, err = setUp(tr, cl, warmURLs); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		loadS = append(loadS, rig.loadS)
	}
	defer rig.stop()

	plain, err := runPasses(cl, rig.d.base, urls, passLen, nil)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", median(setupS))
	var traced servePasses
	if cfg.traced {
		if traced, err = tracedLayers(rep, cfg, rig, cl, urls, warmURLs, passLen, plain); err != nil {
			return nil, err
		}
		rep.set("server.load_s", median(loadS))
		rep.set("tracegen.generate_s", median(genS))
	}

	// Correctness, outside every timed region: every answer against an
	// independent in-process computation over the same trace.
	t0, alloc0 := time.Now(), heapAllocBytes()
	ref, err := analysis.NewStudy(tr, core.Options{})
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		// The same computation LoadDataset runs during set-up.
		rep.set("core.compute_s", time.Since(t0).Seconds())
		rep.set("core.alloc_mb", float64(heapAllocBytes()-alloc0)/(1<<20))
	}
	v := newVerifier(ref)
	limitNS := int64(cfg.latencyLimitMS * 1e6)
	okWithin := make([]int, len(plain))
	for k, p := range plain {
		for i, r := range p.recs {
			u := urls[p.first+i]
			err := v.verify(u, r)
			rep.check(err == nil, "serve: %s: %v", u, err)
			if err == nil && r.done-r.due <= limitNS {
				okWithin[k]++
			}
		}
	}
	for _, p := range traced {
		for i, r := range p.recs {
			u := urls[p.first+i]
			err := v.verify(u, r)
			rep.check(err == nil, "serve (traced): %s: %v", u, err)
		}
	}
	setServeEndToEnd(rep, plain, okWithin)
	return rep, nil
}

// setServeEndToEnd sets the end-to-end metrics from the plain passes:
// each is the median over passes of that pass's figure, so a few
// seconds of host contention within a run move none of them. A pass's
// throughput counts the requests answered correctly within the latency
// limit (okWithin[k] for pass k).
func setServeEndToEnd(rep *report, ps servePasses, okWithin []int) {
	var walls, p50s, p90s, rates []float64
	for k, p := range ps {
		lat := p.latenciesMS()
		walls = append(walls, p.wall())
		p50s = append(p50s, quantile(lat, 0.5))
		p90s = append(p90s, quantile(lat, 0.9))
		rates = append(rates, float64(okWithin[k])/p.wall())
	}
	phs := ps.phases()
	rep.set("wall_s", median(walls))
	rep.set("cpu_s", median(phs.cpus()))
	rep.set("p50_ms", median(p50s))
	rep.set("tail_ms", median(p90s))
	rep.set("throughput_per_s", median(rates))
	rep.set("peak_rss_mb", median(phs.peaks()))
}

// syncBuffer is a bytes.Buffer safe for concurrent use.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// take returns the contents and empties the buffer.
func (b *syncBuffer) take() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := append([]byte(nil), b.buf.Bytes()...)
	b.buf.Reset()
	return out
}

// tracedLayers runs the traced phase against a second daemon over the
// same dataset, with the access log on, a span around every handler
// call and the obs registry wired, and sets the serve per-layer
// metrics. Lateness and the client p99 come from the plain phase, the
// one a user sees.
func tracedLayers(rep *report, cfg runConfig, rig *serveRig, cl *client, urls, warmURLs []string, passLen int, plain servePasses) (servePasses, error) {
	late := plain.latenessMS()
	rep.set("loadgen.late_p50_ms", quantile(late, 0.5))
	rep.set("loadgen.late_p90_ms", quantile(late, 0.9))
	rep.set("http.client_p99_ms", quantile(plain.latenciesMS(), 0.99))
	kb, err := handlerAllocKB(rig.srv.Handler(), urls[:min(serveAllocReqs, len(urls))])
	if err != nil {
		return nil, err
	}
	rep.set("server.alloc_kb_per_req", kb)

	var accessLog syncBuffer
	srv := server.New(context.Background(), serveConfig(&accessLog))
	srv.Register(rig.ds)
	tr := newTracer()
	d, err := listen(traceHandler(srv.Handler(), tr))
	if err != nil {
		return nil, err
	}
	defer d.stop()
	srv.SetReady(true)
	if err := cl.closedLoop(d.base, warmURLs); err != nil {
		return nil, fmt.Errorf("traced warm-up: %w", err)
	}
	accessLog.take()

	reg := wireRegistry()
	reg.start()
	traced, err := runPasses(cl, d.base, urls, passLen, tr)
	reg.stop()
	reg.unwire()
	counters := reg.deltas()

	// Join each client span with the handler span it caused.
	spans := tr.snapshot()
	handler := map[int64]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			handler[s.Parent] = s
		}
	}
	var handlerMS, transportMS []float64
	byEndpoint := map[string][]float64{}
	var clientNS, outsideNS int64
	for _, s := range spans {
		if s.Name != "http.client" {
			continue
		}
		h, ok := handler[s.ID]
		if !ok {
			continue
		}
		handlerMS = append(handlerMS, float64(h.dur())/1e6)
		byEndpoint[h.Name] = append(byEndpoint[h.Name], float64(h.dur())/1e6)
		transportMS = append(transportMS, float64(s.dur()-h.dur())/1e6)
		clientNS += s.dur()
		outsideNS += s.dur() - h.dur()
	}
	rep.check(len(handlerMS) == len(urls), "serve: %d of %d traced requests have a handler span", len(handlerMS), len(urls))
	rep.set("server.handler_p50_ms", quantile(handlerMS, 0.5))
	rep.set("server.handler_p90_ms", quantile(handlerMS, 0.9))
	for _, ep := range []string{"path", "diameter", "delaycdf"} {
		rep.set("server."+ep+"_p50_ms", quantile(byEndpoint["server."+ep], 0.5))
	}
	rep.set("http.transport_p50_ms", quantile(transportMS, 0.5))
	rep.set("trace.unattributed_ratio", ratio(float64(outsideNS), float64(clientNS)))

	stages, err := accessLogStages(accessLog.take())
	if err != nil {
		return nil, err
	}
	for name, ms := range stages {
		rep.set("server."+name+"_p50_ms", quantile(ms, 0.5))
	}

	tph, pph := traced.phases(), plain.phases()
	rep.set("trace.wall_s", median(tph.walls()))
	rep.set("trace.overhead_ratio", median(tph.cpus())/median(pph.cpus())-1)
	rep.set("runtime.gc_pause_s", tph.totalPause().Seconds()/float64(len(tph)))
	setCounterMetrics(rep, counters, 1, tph.totalWall())
	if err := writeRunTrace(cfg, spans, counters, rep); err != nil {
		return nil, err
	}
	return traced, nil
}

// accessLogStages reads the daemon's access log and returns each
// request's queue, compute and encode times in milliseconds.
func accessLogStages(log []byte) (map[string][]float64, error) {
	out := map[string][]float64{}
	for _, line := range bytes.Split(bytes.TrimSpace(log), []byte("\n")) {
		var ev struct {
			Ev        string `json:"ev"`
			QueueNS   int64  `json:"queue_ns"`
			ComputeNS int64  `json:"compute_ns"`
			EncodeNS  int64  `json:"encode_ns"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		if ev.Ev != "req" {
			continue
		}
		out["queue"] = append(out["queue"], float64(ev.QueueNS)/1e6)
		out["compute"] = append(out["compute"], float64(ev.ComputeNS)/1e6)
		out["encode"] = append(out["encode"], float64(ev.EncodeNS)/1e6)
	}
	return out, nil
}

// discardWriter is a reusable http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// handlerAllocKB replays urls straight into the daemon's handler, one
// after another with no network in between, and returns the kilobytes
// the handler allocates per request. ReadMemStats flushes every
// per-P cache, so the count is exact.
func handlerAllocKB(h http.Handler, urls []string) (float64, error) {
	reqs := make([]*http.Request, len(urls))
	for i, u := range urls {
		var err error
		if reqs[i], err = http.NewRequest(http.MethodGet, "http://perfbench"+u, nil); err != nil {
			return 0, err
		}
	}
	w := &discardWriter{h: http.Header{}}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, r := range reqs {
		clear(w.h)
		h.ServeHTTP(w, r)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(reqs)) / 1024, nil
}
