package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// endToEnd computes the end-to-end metrics of the timed window. Every
// latency is per operation, closed loop, client side.
func (r *run) endToEnd() map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64) { m[name] = metric{Value: v, Unit: unitOf(name)} }
	byKind := map[string][]float64{}
	for _, o := range r.ops {
		byKind[o.kind] = append(byKind[o.kind], msOf(o.dur))
	}
	latency := func(prefix string, xs []float64) {
		sort.Float64s(xs)
		set(prefix+"_p50", quantile(xs, 0.5))
		set(prefix+"_p90", quantile(xs, 0.9))
		fmt.Fprintf(r.cfg.log, "# %s latency over %d operations\n", prefix, len(xs))
	}
	seconds := func(ds []time.Duration) []float64 {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = d.Seconds()
		}
		return xs
	}
	set("setup_s", median(seconds(r.setups)))
	set("setup_cpu_s", median(seconds(r.setupCPU)))
	// Every pass runs the same mix, so a pass's percentiles and rates
	// are one sample each; the median over passes keeps a burst of host
	// contention during a few passes from moving the figures.
	perPass := func(name string, f func(i int, ops []*op) float64) {
		xs := make([]float64, len(r.passOps))
		for i, ops := range r.passOps {
			xs[i] = f(i, ops)
		}
		set(name, median(xs))
	}
	pct := func(q float64, of func(*op) time.Duration) func(int, []*op) float64 {
		return func(_ int, ops []*op) float64 {
			xs := make([]float64, len(ops))
			for j, o := range ops {
				xs[j] = msOf(of(o))
			}
			sort.Float64s(xs)
			return quantile(xs, q)
		}
	}
	wall := func(o *op) time.Duration { return o.dur }
	cpu := func(o *op) time.Duration { return o.cpu }
	perPass("op_ms_p50", pct(0.5, wall))
	perPass("op_ms_p90", pct(0.9, wall))
	perPass("ops_per_s", func(i int, ops []*op) float64 { return float64(len(ops)) / r.passDurs[i].Seconds() })
	perPass("cpu_ms_p50", pct(0.5, cpu))
	perPass("cpu_ms_p90", pct(0.9, cpu))
	perPass("cpu_ms_per_op", func(i int, ops []*op) float64 { return msOf(r.passCPU[i]) / float64(len(ops)) })
	fmt.Fprintf(r.cfg.log, "# op_ms, cpu_ms and ops_per_s: median over %d passes of %d operations in all\n", len(r.passOps), len(r.ops))
	set("peak_rss_mb", median(r.passPeaks))
	set("error_ratio", float64(r.failed)/float64(len(r.ops)))
	if r.cfg.workload == "serve-edit" {
		latency("edit_ms", byKind["edit"])
		latency("hit_ms", byKind["hit"])
		latency("query_ms", append(byKind["query_post"], byKind["query_get"]...))
	}
	fmt.Fprintf(r.cfg.log, "# window %v, %d set-ups %v\n", r.window.Round(time.Millisecond), len(r.setups), r.setups)
	fmt.Fprintf(r.cfg.log, "# peak MB of each of %d passes %.0f\n", len(r.passPeaks), r.passPeaks)
	reasons := map[string]int{}
	for _, o := range r.ops {
		if o.meta != nil && o.meta.incr != nil {
			reasons[o.meta.incr.Fallback]++
		}
	}
	for reason, n := range reasons {
		if reason == "" {
			reason = "(grafted)"
		}
		fmt.Fprintf(r.cfg.log, "# served edits with a baseline: %d %s\n", n, reason)
	}
	return m
}

// selfTimes returns each span's duration minus the time its children
// cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// rootKinds maps each operation to its root span's kind.
func rootKinds(spans []span) map[int]string {
	k := map[int]string{}
	for _, s := range spans {
		if s.Parent < 0 {
			k[s.Op] = s.Kind
		}
	}
	return k
}

// layerOf maps a span name to the layer column it is reported under.
var layerOf = map[string]string{
	"frontend": "frontend", "cfg": "cfg", "irhash": "irhash",
	"store.get": "store", "store.put": "store",
	"analysis": "analysis", "analysis.engine": "engine", "incremental": "incremental",
	"modref": "modref", "check": "check", "snapshot": "snapshot", "encode": "encode",
	"demand": "demand",
}

// layerColumns is the per-program row layout.
var layerColumns = []string{"frontend", "cfg", "irhash", "store", "analysis", "incremental",
	"modref", "check", "snapshot", "encode", "demand", "other", "engine"}

// layerMetrics computes the per-layer metrics from the traced replay and
// the daemon metadata of the timed window.
func (r *run) layerMetrics() map[string]metric {
	rp := r.traced
	m := map[string]metric{}
	set := func(name string, v float64) { m[name] = metric{Value: v, Unit: unitOf(name)} }
	kinds := rootKinds(rp.tr.spans)
	selfNS := map[string]int64{}
	for i, d := range selfTimes(rp.tr.spans) {
		s := rp.tr.spans[i]
		if k := kinds[s.Op]; k == "prime" || s.Parent < 0 {
			continue
		}
		selfNS[s.Name] += d
	}
	ops := float64(max(rp.ops, 1))
	perOp := func(name string) float64 { return float64(selfNS[name]) / 1e6 / ops }
	for _, n := range []string{"frontend", "cfg", "irhash", "analysis", "incremental", "check", "modref", "snapshot", "encode"} {
		set(n+".ms", perOp(n))
	}
	set("store.get_ms", perOp("store.get"))
	set("store.put_ms", perOp("store.put"))
	set("analysis.engine_ms", perOp("analysis.engine"))
	set("analysis.collect_ms", perOp("analysis")-perOp("analysis.engine"))
	set("cfg.nodes", meanInts(rp.cfgNodes))
	set("snapshot.bytes", meanInts(rp.snapBytes))
	set("store.put_bytes", meanInts(rp.putBytes))

	if n := float64(len(rp.analyses)); n > 0 {
		var nodes, passes, ptfs, epochs, allocs float64
		for _, a := range rp.analyses {
			nodes += float64(a.stats.NodesEvaluated)
			passes += float64(a.stats.Passes)
			ptfs += a.stats.AvgPTFs()
			epochs += float64(a.stats.ParallelEpochs)
			allocs += float64(a.allocs)
		}
		set("analysis.nodes_evaluated", nodes/n)
		set("analysis.passes", passes/n)
		set("analysis.ptfs_per_proc", ptfs/n)
		set("analysis.parallel_epochs", epochs/n)
		set("analysis.allocs", allocs/n)
	}
	if n := len(rp.incr); n > 0 {
		grafts, fallbacks, restored, reconverged := 0, 0, 0, 0
		reasons := map[string]int{}
		for _, s := range rp.incr {
			if s.Fallback != "" {
				fallbacks++
				reasons[s.Fallback]++
				continue
			}
			grafts++
			restored += s.RestoredPTFs
			reconverged += s.ReconvergedPTFs
		}
		set("incremental.graft_ratio", float64(grafts)/float64(n))
		set("incremental.fallbacks", float64(fallbacks))
		if grafts > 0 {
			set("incremental.restored_ptfs", float64(restored)/float64(grafts))
			set("incremental.reconverged_ptfs", float64(reconverged)/float64(grafts))
		}
		for reason, k := range reasons {
			fmt.Fprintf(r.cfg.log, "# replayed graft fallback: %d %s\n", k, reason)
		}
	}
	set("check.diags", float64(rp.diags))
	if rp.queryCalls > 0 {
		set("demand.query_us", float64(selfNS["demand"])/1e3/float64(rp.queryCalls))
		set("demand.nodes_visited", float64(rp.demand.NodesVisited)/float64(rp.queryCalls))
		set("demand.skipped_calls", float64(rp.demand.SkippedCalls)/float64(rp.queryCalls))
	}
	if rp.demand.Queries > 0 {
		set("demand.fallback_ratio", float64(rp.demand.Fallbacks)/float64(rp.demand.Queries))
	}
	if st := rp.st; st != nil {
		s := st.Stats()
		if gets := s.Hits() + s.Misses; gets > 0 {
			set("store.hit_ratio", float64(s.Hits())/float64(gets))
		}
	}

	// server.*: response metadata and client timing of the timed window.
	var served, handler, hash, transport float64
	var queries, cold int
	for _, o := range r.ops {
		if o.meta == nil {
			continue
		}
		served++
		handler += o.meta.totalMS
		hash += o.meta.hashMS
		transport += msOf(o.dur) - o.meta.totalMS
		if o.kind == "query_post" || o.kind == "query_get" {
			queries++
			if o.meta.cache == "cold" {
				cold++
			}
		}
	}
	if served > 0 {
		set("server.handler_ms", handler/served)
		set("server.hash_ms", hash/served)
		set("server.transport_ms", transport/served)
	}
	if queries > 0 {
		set("server.query_cold_ratio", float64(cold)/float64(queries))
	}
	if r.final != nil {
		set("server.baseline_evictions", float64(r.final.Baselines.Evictions))
	}
	set("trace.overhead_ratio", r.overhead)
	r.printRows()
	return m
}

// opDurations lists the durations of a replay's operations in order
// (priming and derived calls excluded).
func opDurations(rp *replay) []int64 {
	var ds []int64
	for _, s := range rp.tr.spans {
		if s.Parent < 0 && s.Kind != "prime" && s.Kind != "derived" {
			ds = append(ds, s.EndNS-s.StartNS)
		}
	}
	return ds
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

func meanInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0
	for _, x := range xs {
		t += x
	}
	return float64(t) / float64(len(xs))
}

// row is one program's per-layer self time, mean per operation, in
// milliseconds; "engine" is the derived engine-only column (Table 2).
type row struct {
	Program string             `json:"program"`
	Ops     int                `json:"ops"`
	Layers  map[string]float64 `json:"layers_ms"`
	TotalMS float64            `json:"total_ms"`
}

func (r *run) rows() []row {
	rp := r.traced
	kinds := rootKinds(rp.tr.spans)
	by := map[string]*row{}
	var names []string
	for i, d := range selfTimes(rp.tr.spans) {
		s := rp.tr.spans[i]
		if kinds[s.Op] == "prime" {
			continue
		}
		w := by[s.Program]
		if w == nil {
			w = &row{Program: s.Program, Ops: rp.progOps[s.Program], Layers: map[string]float64{}}
			by[s.Program] = w
			names = append(names, s.Program)
		}
		switch {
		case s.Parent < 0 && s.Kind == "derived":
		case s.Parent < 0:
			w.TotalMS += float64(s.EndNS-s.StartNS) / 1e6
			w.Layers["other"] += float64(d) / 1e6
		default:
			l, ok := layerOf[s.Name]
			if !ok {
				l = "other"
			}
			w.Layers[l] += float64(d) / 1e6
		}
	}
	out := make([]row, 0, len(names))
	for _, n := range names {
		w := by[n]
		ops := float64(max(w.Ops, 1))
		for l := range w.Layers {
			w.Layers[l] /= ops
		}
		w.TotalMS /= ops
		out = append(out, *w)
	}
	return out
}

func (r *run) printRows() {
	fmt.Fprintf(r.cfg.log, "# per-program rows (%s): self ms per operation; engine = derived engine-only run (Table 2 column)\n#   %-12s %4s", r.cfg.workload, "program", "ops")
	for _, l := range layerColumns {
		fmt.Fprintf(r.cfg.log, " %9s", l)
	}
	fmt.Fprintf(r.cfg.log, " %9s\n", "total")
	for _, w := range r.rows() {
		fmt.Fprintf(r.cfg.log, "#   %-12s %4d", w.Program, w.Ops)
		for _, l := range layerColumns {
			fmt.Fprintf(r.cfg.log, " %9.3f", w.Layers[l])
		}
		fmt.Fprintf(r.cfg.log, " %9.3f\n", w.TotalMS)
	}
}

// writeTrace writes the spans and per-program rows of the traced replay
// once the run is over.
func (r *run) writeTrace() error {
	if r.cfg.out == "" {
		return nil
	}
	if err := os.MkdirAll(r.cfg.out, 0o755); err != nil {
		return err
	}
	type inputInfo struct{ Name, Class, Why string }
	var ins []inputInfo
	for _, in := range r.inputs {
		ins = append(ins, inputInfo{in.name, in.class, in.why})
	}
	data, err := json.Marshal(struct {
		Workload   string      `json:"workload"`
		Seed       int64       `json:"seed"`
		GOMAXPROCS int         `json:"gomaxprocs"`
		GoVersion  string      `json:"go_version"`
		Inputs     []inputInfo `json:"inputs"`
		Rows       []row       `json:"rows"`
		Spans      []span      `json:"spans"`
	}{r.cfg.workload, r.cfg.seed, runtime.GOMAXPROCS(0), runtime.Version(), ins, r.rows(), r.traced.tr.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(r.cfg.out, fmt.Sprintf("trace-%s-seed%d.json", r.cfg.workload, r.cfg.seed))
	fmt.Fprintf(r.cfg.log, "# spans written to %s\n", path)
	return os.WriteFile(path, data, 0o644)
}
