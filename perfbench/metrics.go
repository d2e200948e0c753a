package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// metricDef names one reported metric. The two catalogs below must
// match BENCHMARK.json's end_to_end and per_layer lists (a test checks
// it).
type metricDef struct {
	name, unit string
}

// endToEnd is what a plain run (-trace 0) prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer is what a traced run (-trace 1) prints. Every workload
// prints every metric; a layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"forward.evaluate_s", "s"},
	{"forward.alloc_mb", "MB"},
	{"analysis.delaycdf_s", "s"},
	{"analysis.diameter_s", "s"},
	{"analysis.removal_s", "s"},
	{"analysis.alloc_mb", "MB"},
	{"analysis.curve_cache_hit_ratio", "ratio"},
	{"analysis.fast_tier_fallbacks", "count"},
	{"reach.cert_pass_ratio", "ratio"},
	{"core.compute_s", "s"},
	{"core.alloc_mb", "MB"},
	{"core.accept_ratio", "ratio"},
	{"core.extend_p50_ms", "ms"},
	{"core.extend_p90_ms", "ms"},
	{"core.extend_accept_ratio", "ratio"},
	{"core.extend_fallbacks", "count"},
	{"core.read_ms", "ms"},
	{"timeline.append_ms", "ms"},
	{"timeline.snapshot_ms", "ms"},
	{"timeline.write_amp", "ratio"},
	{"timeline.seals", "count"},
	{"timeline.merges", "count"},
	{"server.load_s", "s"},
	{"server.handler_p50_ms", "ms"},
	{"server.handler_p90_ms", "ms"},
	{"server.path_p50_ms", "ms"},
	{"server.diameter_p50_ms", "ms"},
	{"server.delaycdf_p50_ms", "ms"},
	{"server.queue_p50_ms", "ms"},
	{"server.compute_p50_ms", "ms"},
	{"server.encode_p50_ms", "ms"},
	{"server.alloc_kb_per_req", "KB"},
	{"server.coalesced", "count"},
	{"server.shed", "count"},
	{"server.degraded", "count"},
	{"http.transport_p50_ms", "ms"},
	{"http.client_p99_ms", "ms"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p90_ms", "ms"},
	{"tracegen.generate_s", "s"},
	{"par.busy_ratio", "ratio"},
	{"runtime.gc_pause_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_ratio", "ratio"},
}

// report is one run's outcome: its checks and its metrics by name.
type report struct {
	attempted, failed int
	metrics           map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// maxReported caps the failed checks printed; the count covers them all.
const maxReported = 10

// check counts one verified operation and reports a failure on stderr.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= maxReported {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
	}
}

// set records a metric.
func (r *report) set(name string, v float64) { r.metrics[name] = v }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the catalog's metrics one per line, then the result as a
// single JSON object on the last line. A metric the run did not set
// reads 0; a non-finite value is an error, since JSON cannot carry it.
func (r *report) emit(w io.Writer, catalog []metricDef) error {
	line := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(catalog)),
	}
	for _, m := range catalog {
		v := r.metrics[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		fmt.Fprintf(w, "%-32s %14.6f %s\n", m.name, v, m.unit)
		line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
