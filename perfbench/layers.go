package main

import (
	"time"

	"opportunet/internal/obs"
)

// registry is the program's own obs registry, wired only for the traced
// phase of a traced run. It accumulates counter deltas over the spans
// of work bracketed by start and stop, so checks run between passes
// are not counted.
type registry struct {
	reg       *obs.Registry
	base, acc map[string]int64
}

// wireRegistry attaches a fresh registry to every instrumented package.
// Call it between phases, never while work is running.
func wireRegistry() *registry {
	reg := obs.NewRegistry()
	obs.Wire(reg)
	return &registry{reg: reg, acc: map[string]int64{}}
}

func (r *registry) now() map[string]int64 {
	c, _, _ := r.reg.Snapshot()
	return c
}

func (r *registry) start() { r.base = r.now() }

func (r *registry) stop() {
	for k, v := range r.now() {
		r.acc[k] += v - r.base[k]
	}
}

// counting wraps pass so that only its own work is counted.
func (r *registry) counting(pass func() error) func() error {
	return func() error {
		r.start()
		defer r.stop()
		return pass()
	}
}

// deltas returns each counter's accumulated change.
func (r *registry) deltas() map[string]int64 { return r.acc }

// unwire detaches the registry again, restoring the free no-op handles.
func (r *registry) unwire() { obs.Wire(nil) }

// setCounterMetrics turns the program's counters, accumulated over a
// traced phase of `passes` passes and `wall` total wall time, into the
// per-layer ratios and per-pass counts.
func setCounterMetrics(rep *report, d map[string]int64, passes int, wall time.Duration) {
	f := func(name string) float64 { return float64(d[name]) }
	per := func(name string) float64 { return f(name) / float64(passes) }
	hits, misses := f("analysis_curve_cache_hits_total"), f("analysis_curve_cache_misses_total")
	rep.set("analysis.curve_cache_hit_ratio", ratio(hits, hits+misses))
	rep.set("analysis.fast_tier_fallbacks", per("analysis_fast_tier_exact_fallbacks_total"))
	pass, fail := f("reach_cert_passes_total"), f("reach_cert_fails_total")
	rep.set("reach.cert_pass_ratio", ratio(pass, pass+fail))
	rep.set("core.accept_ratio", ratio(f("core_extensions_accepted_total"), f("core_extensions_attempted_total")))
	rep.set("core.extend_accept_ratio", ratio(f("core_extend_accepted_total"), f("core_extend_attempted_total")))
	rep.set("core.extend_fallbacks", per("core_extend_fallbacks_total"))
	rep.set("timeline.write_amp", ratio(f("timeline_merge_contacts_rewritten_total"), f("timeline_appended_contacts_total")))
	rep.set("timeline.seals", per("timeline_segment_seals_total"))
	rep.set("timeline.merges", per("timeline_segment_merges_total"))
	rep.set("server.coalesced", f("server_coalesced_total"))
	rep.set("server.shed", f("server_shed_queue_full_total")+f("server_shed_wait_total"))
	rep.set("server.degraded", f("server_degraded_total"))
	rep.set("par.busy_ratio", ratio(f("par_worker_busy_ns_total"), float64(wall)*float64(gomaxprocs())))
}
