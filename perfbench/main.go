// Command perfbench is the repository's benchmark. It runs one of three
// workloads in a single process and prints every metric by name with
// its unit, ending with one JSON line:
//
//	exhibits  the Figure 9, Figure 10 and forwarding exhibits (closed loop, one caller)
//	serve     an in-process opportunetd at a fixed open-loop rate over loopback TCP
//	ingest    a live-feed replay: append, snapshot, incremental extend, reads
//
// A plain run (-trace 0) reports the end-to-end metrics. A traced run
// (-trace 1) repeats the same work with spans around every call into a
// layer and the program's own obs registry wired, reports the per-layer
// metrics and the tracing overhead, and writes the spans and counters
// to one JSON file under -out. See README.md.
//
// Usage:
//
//	perfbench -workload serve -seed 1 -seconds 20 -trace 0
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	outDir   string
	// latencyLimitMS is the serve workload's latency limit: a request
	// counts toward throughput only if answered correctly within it.
	latencyLimitMS float64
}

// passes sizes a closed-loop run: the number of passes of nominal
// length that fill the requested seconds, at least minPasses. The count is
// fixed by the settings, not by how fast passes go, so every run of a
// workload measures the same work.
func (c runConfig) passes(nominal float64, minPasses int) int {
	n := int(math.Round(c.seconds / nominal))
	if n < minPasses {
		n = minPasses
	}
	return n
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: exhibits, serve or ingest")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the measured phase should take")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", "perfbench-traces", "directory for the traced run's span file")
	flag.Float64Var(&cfg.latencyLimitMS, "latency-limit-ms", 10, "serve: latency limit a request must meet to count toward throughput")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.traced = traceFlag == 1
	runtime.GOMAXPROCS(runtime.NumCPU())

	run := map[string]func(runConfig) (*report, error){
		"exhibits": runExhibits,
		"serve":    runServe,
		"ingest":   runIngest,
	}[cfg.workload]
	if run == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want exhibits, serve or ingest)\n", cfg.workload)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	catalog := endToEnd
	if cfg.traced {
		catalog = perLayer
	}
	if err := rep.emit(os.Stdout, catalog); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
}
