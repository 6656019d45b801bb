package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"wlpa/internal/analysis"
	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/demand"
	"wlpa/internal/irhash"
	"wlpa/internal/libsum"
	"wlpa/internal/sem"
	"wlpa/internal/store"
	"wlpa/pta"
)

// The traced run replays each operation's handler sequence from the
// benchmark's own code — the layer calls happen inside the daemon,
// where a benchmark cannot put spans — with the daemon's state kept the
// way internal/server keeps it: a memory-only store, a per-entry
// single-use baseline LRU and a per-entry warm query LRU.

// span is one timed call. Spans of one operation share Op; Parent
// indexes the enclosing span (-1 for a root).
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Program string `json:"program"`
	Kind    string `json:"kind"` // root spans: the operation kind
}

// tracer keeps spans in memory. With layers off it records only the
// root span of each operation, which is how the untraced replay times
// the same work for the overhead figure.
type tracer struct {
	layers bool
	t0     time.Time
	spans  []span
	open   []int
	op     int
	prog   string
}

// begin opens a span (a no-op returning -1 for a layer span when layers
// are off).
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	} else {
		t.op++
	}
	if parent >= 0 && !t.layers {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, StartNS: int64(time.Since(t.t0)), Program: t.prog})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].EndNS = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) rename(i int, name string) {
	if i >= 0 {
		t.spans[i].Name = name
	}
}

// lru is a small entry-keyed LRU, as internal/server keeps its
// registries.
type lru[V any] struct {
	cap   int
	m     map[string]V
	order []string
}

func newLRU[V any](capacity int) *lru[V] { return &lru[V]{cap: capacity, m: map[string]V{}} }

func (l *lru[V]) get(k string) (V, bool) {
	v, ok := l.m[k]
	if ok {
		l.drop(k)
		l.order = append(l.order, k)
	}
	return v, ok
}

func (l *lru[V]) take(k string) (V, bool) {
	v, ok := l.m[k]
	if ok {
		delete(l.m, k)
		l.drop(k)
	}
	return v, ok
}

func (l *lru[V]) put(k string, v V) {
	if _, ok := l.m[k]; ok {
		l.drop(k)
	}
	l.m[k] = v
	l.order = append(l.order, k)
	for len(l.order) > l.cap {
		delete(l.m, l.order[0])
		l.order = l.order[1:]
	}
}

func (l *lru[V]) drop(k string) {
	for i, e := range l.order {
		if e == k {
			l.order = append(l.order[:i], l.order[i+1:]...)
			return
		}
	}
}

type warmQuery struct {
	root string
	res  *pta.Result
	d    *pta.Demand
}

// analysisCall is what one engine run reported.
type analysisCall struct {
	stats  analysis.Stats
	allocs uint64
}

// replay is one replayed pass of a workload.
type replay struct {
	tr        *tracer
	st        *store.Store
	baselines *lru[*pta.Baseline]
	queries   *lru[*warmQuery]
	opts      pta.Options

	ops        int  // replayed operations (priming excluded)
	priming    bool // the current operation is set-up
	analyses   []analysisCall
	incr       []pta.IncrStats
	cfgNodes   []int
	snapBytes  []int
	putBytes   []int
	demand     demand.Stats
	queryCalls int
	diags      int
	progOps    map[string]int
}

func newReplay(layers bool) *replay {
	return &replay{
		tr:        &tracer{layers: layers, t0: time.Now()},
		baselines: newLRU[*pta.Baseline](wlpadBaselineCap),
		queries:   newLRU[*warmQuery](4), // internal/server's maxQueryResults
		opts:      pta.Options{Workers: wlpadWorkers, Timeout: wlpadTimeout},
		progOps:   map[string]int{},
	}
}

// replayAll runs the replay six times, alternating one with only root
// spans and one with every layer span. The last traced replay gives the
// per-layer metrics. The tracing overhead compares, operation by
// operation, the fastest of the three runs of each kind, so a burst of
// host noise in one replay does not decide it.
func (r *run) replayAll(pass func(*replay) error) error {
	best := map[bool][]int64{}
	for i := 0; i < 6; i++ {
		layers := i%2 == 1
		runtime.GC()
		rp := newReplay(layers)
		if err := pass(rp); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		d := opDurations(rp)
		if b := best[layers]; b == nil {
			best[layers] = d
		} else {
			for k := range b {
				b[k] = min(b[k], d[k])
			}
		}
		if layers {
			r.traced = rp
		}
	}
	r.overhead = float64(sum(best[true]))/float64(sum(best[false])) - 1
	return r.writeTrace()
}

// startOp opens an operation's root span.
func (rp *replay) startOp(kind, prog string) int {
	rp.tr.prog = prog
	i := rp.tr.begin("op")
	rp.tr.spans[i].Kind = kind
	if rp.priming {
		rp.tr.spans[i].Kind = "prime"
	} else {
		rp.ops++
		rp.progOps[prog]++
	}
	return i
}

// call runs f inside a span named name.
func (rp *replay) call(name string, f func() error) error {
	i := rp.tr.begin(name)
	err := f()
	rp.tr.end(i)
	return err
}

// derived runs f outside every operation, under its own root span. It
// runs in the untraced replay too, so both replays do the same work and
// collect the same garbage between operations.
func (rp *replay) derived(name string, f func() error) error {
	if !rp.tr.layers {
		return f()
	}
	i := rp.tr.begin("derived")
	rp.tr.spans[i].Kind = "derived"
	err := rp.call(name, f)
	rp.tr.end(i)
	return err
}

// frontAndHash is the daemon's frontend + flow-graph build + IR hash.
func (rp *replay) frontAndHash(entry, src string) (*sem.Program, map[*cast.FuncDecl]*cfg.Proc, *irhash.Program, error) {
	var prog *sem.Program
	var procs map[*cast.FuncDecl]*cfg.Proc
	var ir *irhash.Program
	err := rp.call("frontend", func() (err error) {
		prog, err = pta.Frontend(pta.Source{entry: src}, entry, nil)
		return err
	})
	if err == nil {
		err = rp.call("cfg", func() (err error) {
			procs, err = cfg.BuildAll(prog.Funcs)
			return err
		})
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if rp.tr.layers && !rp.priming {
		n := 0
		for _, p := range procs {
			n += len(p.Nodes)
		}
		rp.cfgNodes = append(rp.cfgNodes, n)
	}
	_ = rp.call("irhash", func() error { ir = irhash.HashProcs(prog, procs); return nil })
	return prog, procs, ir, nil
}

// analyze runs the engine cold (or, given a baseline, incrementally)
// inside a span, recording its statistics and allocations.
func (rp *replay) analyze(prog *sem.Program, procs map[*cast.FuncDecl]*cfg.Proc, ir *irhash.Program, bl *pta.Baseline) (*pta.Result, error) {
	var before, after runtime.MemStats
	if rp.tr.layers {
		runtime.ReadMemStats(&before)
	}
	name := "analysis"
	if bl != nil {
		name = "incremental"
	}
	i := rp.tr.begin(name)
	var res *pta.Result
	var err error
	if bl != nil {
		res, err = pta.AnalyzeIncrementalPrepared(bl, prog, procs, ir, &rp.opts)
	} else {
		res, err = pta.AnalyzeProgram(prog, &rp.opts)
	}
	rp.tr.end(i)
	if err != nil || !rp.tr.layers || rp.priming {
		return res, err
	}
	runtime.ReadMemStats(&after)
	inc := res.Incremental()
	if inc != nil {
		rp.incr = append(rp.incr, *inc)
		if inc.Fallback == "" {
			return res, nil
		}
		// A refused graft ran the engine cold: its time is analysis.
		rp.tr.rename(i, "analysis")
	}
	rp.analyses = append(rp.analyses, analysisCall{stats: res.Stats(), allocs: after.Mallocs - before.Mallocs})
	return res, nil
}

// engineOnly is the derived engine-only run (the paper's Table 2
// column): analysis.New+Run with solution collection off.
func (rp *replay) engineOnly(prog *sem.Program) error {
	if rp.priming {
		return nil
	}
	return rp.derived("analysis.engine", func() error {
		an, err := analysis.New(prog, analysis.Options{
			Lib: libsum.Summaries(), LibEffects: libsum.Effects(),
			Workers: rp.opts.Workers, Timeout: rp.opts.Timeout,
		})
		if err != nil {
			return err
		}
		return an.Run()
	})
}

func (rp *replay) put(key store.Key, data []byte) {
	_ = rp.call("store.put", func() error { return rp.st.Put(key, data) })
	if rp.tr.layers && !rp.priming {
		rp.putBytes = append(rp.putBytes, len(data))
	}
}

// ledger is the daemon's per-procedure ledger write-back after a miss.
func (rp *replay) ledger(res *pta.Result, ir *irhash.Program) {
	i := rp.tr.begin("ledger")
	defer rp.tr.end(i)
	var domains map[string]string
	var dump []string
	_ = rp.call("digests", func() error { domains = res.DomainDigests(); return nil })
	_ = rp.call("modref", func() error { dump = res.ModRefDump(); return nil })
	byProc := map[string][]string{}
	for _, line := range dump {
		if p, _, ok := strings.Cut(line, ":"); ok {
			byProc[p] = append(byProc[p], line)
		}
	}
	procs := res.Procedures()
	sort.Strings(procs)
	for _, proc := range procs {
		ph := ir.ProcHash(proc)
		dom, ok := domains[proc]
		if ph == nil || !ok {
			continue
		}
		key := store.KeyOf("proc", procArtifactFormat, optsFingerprint, ir.Globals, ph.Closure, dom)
		var found bool
		_ = rp.call("store.get", func() error { _, found = rp.st.Get(key); return nil })
		if found {
			continue
		}
		data, err := json.Marshal(procArtifact{
			Format: procArtifactFormat, Proc: proc, NumPTFs: res.NumPTFs(proc),
			DomainDigest: dom, ModRef: byProc[proc],
		})
		if err == nil {
			rp.put(key, data)
		}
	}
}

// Copies of internal/server's unexported ledger format and options
// fingerprint at the daemon's defaults, so replayed keys equal served
// ones.
const (
	procArtifactFormat = "wlpa/procart/v1"
	optsFingerprint    = "policy=0 maxptfs=0 combine=false forcefull=false"
)

type procArtifact struct {
	Format       string   `json:"format"`
	Proc         string   `json:"proc"`
	NumPTFs      int      `json:"num_ptfs"`
	DomainDigest string   `json:"domain_digest"`
	ModRef       []string `json:"mod_ref,omitempty"`
}

// serveAnalyze replays POST /analyze.
func (rp *replay) serveAnalyze(kind string, in *input, v int) error {
	root := rp.startOp(kind, in.name)
	prog, procs, ir, err := rp.frontAndHash(in.entry, in.versions[v])
	if err != nil {
		rp.tr.end(root)
		return err
	}
	key := store.KeyOf("program", pta.SnapshotFormat, optsFingerprint, "diags=false", ir.Root)
	var hit bool
	_ = rp.call("store.get", func() error { _, hit = rp.st.Get(key); return nil })
	if hit {
		rp.tr.end(root)
		return nil
	}
	bl, _ := rp.baselines.take(in.entry)
	res, err := rp.analyze(prog, procs, ir, bl)
	if err != nil {
		rp.tr.end(root)
		return err
	}
	var snap *pta.Snapshot
	var data []byte
	err = rp.call("snapshot", func() (err error) {
		snap, err = res.Snapshot(&pta.SnapshotOptions{Fingerprint: key.String()})
		return err
	})
	if err == nil {
		err = rp.call("encode", func() (err error) { data, err = snap.Encode(); return err })
	}
	if err != nil {
		rp.tr.end(root)
		return err
	}
	if rp.tr.layers && !rp.priming {
		rp.snapBytes = append(rp.snapBytes, len(data))
	}
	rp.put(key, data)
	rp.ledger(res, ir)
	_ = rp.call("baseline", func() error {
		rp.baselines.put(in.entry, pta.BaselineFromHash(res, ir, &rp.opts))
		return nil
	})
	rp.tr.end(root)
	if inc := res.Incremental(); inc == nil || inc.Fallback != "" {
		return rp.engineOnly(prog)
	}
	return nil
}

// serveQuery replays POST /query (post) or GET /query.
func (rp *replay) serveQuery(post bool, in *input, v int, sites []pta.QuerySite) error {
	kind := "query_get"
	if post {
		kind = "query_post"
	}
	root := rp.startOp(kind, in.name)
	var coldProg *sem.Program
	e, ok := rp.queries.get(in.entry)
	if post {
		prog, procs, ir, err := rp.frontAndHash(in.entry, in.versions[v])
		if err != nil {
			rp.tr.end(root)
			return err
		}
		if !ok || e.root != ir.Root {
			res, err := rp.analyze(prog, procs, ir, nil)
			if err != nil {
				rp.tr.end(root)
				return err
			}
			rp.ledger(res, ir)
			e = &warmQuery{root: ir.Root, res: res, d: res.Demand(nil)}
			rp.queries.put(in.entry, e)
			coldProg = prog
		}
	} else if !ok {
		rp.tr.end(root)
		return fmt.Errorf("GET /query on %s with no warm result", in.name)
	}
	for _, s := range sites {
		before := e.d.Stats()
		_ = rp.call("demand", func() error { e.d.PointsToAt(s.Proc, s.Line, s.Expr); return nil })
		if rp.tr.layers && !rp.priming {
			after := e.d.Stats()
			rp.demand.NodesVisited += after.NodesVisited - before.NodesVisited
			rp.demand.SkippedCalls += after.SkippedCalls - before.SkippedCalls
			rp.demand.Fallbacks += after.Fallbacks - before.Fallbacks
			rp.demand.Queries += after.Queries - before.Queries
			rp.queryCalls++
		}
	}
	rp.tr.end(root)
	if coldProg != nil {
		return rp.engineOnly(coldProg)
	}
	return nil
}

// batch replays the batch-check pass: frontend, analysis, checkers.
// MOD/REF, which the checkers compute over their own null-tracking
// re-analysis, is timed by a derived ModRefDump of the result.
func (rp *replay) batch(ins []*input) error {
	rp.opts = pta.Options{} // wlcheck's analysis options
	for _, in := range ins {
		root := rp.startOp("check", in.name)
		var prog *sem.Program
		var res *pta.Result
		var diags []pta.Diagnostic
		err := rp.call("frontend", func() (err error) {
			prog, err = pta.Frontend(pta.Source{in.entry: in.versions[0]}, in.entry, nil)
			return err
		})
		if err == nil {
			res, err = rp.analyze(prog, nil, nil, nil)
		}
		if err == nil {
			err = rp.call("check", func() (err error) { diags, err = res.Check(nil); return err })
		}
		rp.tr.end(root)
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		if rp.tr.layers {
			rp.diags += len(diags)
		}
		if err := rp.engineOnly(prog); err != nil {
			return err
		}
		if err := rp.derived("modref", func() error { res.ModRefDump(); return nil }); err != nil {
			return err
		}
	}
	return nil
}

// cold replays one serve-cold pass against a fresh store.
func (rp *replay) cold(ins []*input) error {
	var err error
	if rp.st, err = store.Open("", store.DefaultMemBudget); err != nil {
		return err
	}
	for _, in := range ins {
		if err := rp.serveAnalyze("miss", in, 0); err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
	}
	return nil
}

// edit replays serve-edit: priming, then one visit per program of
// editSteps steps over the first prepared edits.
func (rp *replay) edit(ins []*input, seed int64) error {
	var err error
	if rp.st, err = store.Open("", store.DefaultMemBudget); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	rp.priming = true
	for _, in := range ins {
		if err := rp.serveAnalyze("prime", in, 0); err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
	}
	rp.priming = false
	for _, in := range ins {
		for v := 1; v <= editSteps && v < len(in.versions); v++ {
			if err := rp.serveAnalyze("edit", in, v); err != nil {
				return fmt.Errorf("%s: %w", in.name, err)
			}
			if err := rp.serveQuery(true, in, v, in.sites); err != nil {
				return err
			}
			for g := 0; g < getsPerStep; g++ {
				s := in.sites[rng.Intn(len(in.sites))]
				if err := rp.serveQuery(false, in, v, []pta.QuerySite{s}); err != nil {
					return err
				}
			}
			if err := rp.serveAnalyze("hit", in, v); err != nil {
				return err
			}
		}
	}
	return nil
}
