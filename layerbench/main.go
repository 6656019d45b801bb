// Command layerbench is wlpa's end-to-end benchmark. It runs one
// workload against the public entry points a wlpa user calls — the
// wlcheck path in-process, or an in-process wlpad daemon at its flag
// defaults over HTTP with one closed-loop client — checks every output
// against an independent reference, and prints every metric by name
// with its unit. With -trace 1 it also replays each operation's handler
// sequence layer by layer with spans and reports per-layer metrics,
// per-program rows and the tracing overhead.
//
// Usage (from the repository root; layerbench/run.sh builds and runs it):
//
//	layerbench -workload batch-check|serve-cold|serve-edit|serve-fanout -seed N -seconds S -trace 0|1 [-out DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads, the metrics and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory the span file is written to ("" = none)
	log      io.Writer

	// tamper, when set, may rewrite the output of every recorded
	// operation before it is verified. The self-test plants a wrong
	// answer with it; the command line never sets it.
	tamper func(o *op, out []byte) []byte
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*config) (*run, error){
	"batch-check": runBatchCheck,
	"serve-cold":  runServeCold,
	"serve-edit":  runServeEdit,

	// Not in BENCHMARK.json; see runServeFanout.
	"serve-fanout": runServeFanout,
}

func main() {
	var (
		wl      = flag.String("workload", "", "batch-check, serve-cold, serve-edit (or serve-fanout)")
		seed    = flag.Int64("seed", 1, "seed for generated programs, edit positions and query sites")
		seconds = flag.Int("seconds", 10, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "1 = also run the traced per-layer replay and report per-layer metrics")
		out     = flag.String("out", "", "directory for the span file of a traced run (empty = not written)")
	)
	flag.Parse()
	if workloads[*wl] == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: layerbench -workload batch-check|serve-cold|serve-edit|serve-fanout -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	cfg := &config{
		workload: *wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, out: *out, log: os.Stdout,
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs the configured workload, verifies it and assembles the
// result line. Human-readable lines go to cfg.log.
func execute(cfg *config) (*result, error) {
	fmt.Fprintf(cfg.log, "# workload=%s seed=%d seconds=%v trace=%v GOMAXPROCS=%d NumCPU=%d go=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	r, err := workloads[cfg.workload](cfg)
	if err != nil {
		return nil, err
	}
	failed := r.verify(cfg)
	e2e := r.endToEnd()
	printMetrics(cfg.log, "end-to-end", e2e)
	res := &result{Correct: failed == 0, Attempted: len(r.ops), Failed: failed}
	if !cfg.trace {
		res.Metrics = pick(e2e, endToEndNames)
		return res, nil
	}
	layers := r.layerMetrics()
	for k, v := range e2e {
		layers[k] = v
	}
	res.Metrics = pick(layers, perLayerNames)
	printMetrics(cfg.log, "per-layer", res.Metrics)
	return res, nil
}

// endToEndNames are the metrics a -trace 0 run reports (BENCHMARK.json
// end_to_end): defined and nonzero on every workload, and steady on a
// shared host. The wall-clock latencies and peak_rss_mb are printed on
// every run but carried in the traced result; README.md says why.
var endToEndNames = []string{"setup_s", "cpu_ms_p50", "cpu_ms_per_op"}

// perLayerNames are the metrics a -trace 1 run reports (BENCHMARK.json
// per_layer). A layer a workload bypasses reads 0.
var perLayerNames = []string{
	"frontend.ms", "cfg.ms", "cfg.nodes", "irhash.ms",
	"analysis.ms", "analysis.engine_ms", "analysis.collect_ms", "analysis.nodes_evaluated",
	"analysis.passes", "analysis.ptfs_per_proc", "analysis.parallel_epochs", "analysis.allocs",
	"incremental.ms", "incremental.graft_ratio", "incremental.fallbacks",
	"incremental.restored_ptfs", "incremental.reconverged_ptfs",
	"check.ms", "check.diags", "modref.ms",
	"snapshot.ms", "snapshot.bytes", "encode.ms", "store.put_ms", "store.put_bytes",
	"demand.query_us", "demand.nodes_visited", "demand.skipped_calls", "demand.fallback_ratio",
	"server.query_cold_ratio",
	"store.get_ms", "store.hit_ratio", "server.handler_ms", "server.hash_ms", "server.transport_ms",
	"server.baseline_evictions",
	"trace.overhead_ratio",
	"error_ratio", "peak_rss_mb", "op_ms_p50", "op_ms_p90", "ops_per_s", "cpu_ms_p90", "setup_cpu_s",
	"edit_ms_p50", "edit_ms_p90", "hit_ms_p50", "hit_ms_p90", "query_ms_p50", "query_ms_p90",
}

// pick returns exactly the named metrics; a name the run did not
// produce reads 0 with its unit.
func pick(all map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := all[n]
		if !ok {
			m = metric{Unit: unitOf(n)}
		}
		out[n] = m
	}
	return out
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case name == "setup_s" || name == "setup_cpu_s":
		return "s"
	case name == "cpu_ms_per_op":
		return "ms"
	case name == "ops_per_s":
		return "1/s"
	case name == "peak_rss_mb":
		return "MB"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "ms") || strings.HasSuffix(name, "_p50") || strings.HasSuffix(name, "_p90"):
		return "ms"
	case strings.HasSuffix(name, "ratio"):
		return "ratio"
	case strings.HasSuffix(name, "bytes"):
		return "bytes"
	}
	return "count"
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s metrics\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "#   %-28s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
