package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"wlpa/internal/cfg"
	"wlpa/internal/demand"
	"wlpa/internal/irhash"
	"wlpa/internal/server"
	"wlpa/internal/workload"
	"wlpa/pta"
)

// setupRounds is how many times a run repeats its set-up; setup_s is
// the median.
const setupRounds = 5

// serve-edit mix: per step one edit, one POST /query batch of up to
// postSites sites, getsPerStep single-site GETs and one unchanged
// re-send; editSteps steps per program visit.
const (
	editSteps   = 2
	postSites   = 16
	getsPerStep = 6
)

// op is one timed operation and what is needed to verify it.
type op struct {
	id      int
	kind    string // check, miss, edit, hit, query_post, query_get
	in      *input
	version int           // index into in.versions
	dur     time.Duration // wall-clock, at the client
	cpu     time.Duration // process CPU time over the same interval
	err     error
	sum     [sha256.Size]byte // digest of the output as served
	key     string            // /analyze: meta.key
	sites   []pta.QuerySite   // /query: the sites asked
	meta    *opMeta           // daemon workloads
}

// opMeta is the daemon's response metadata of one request.
type opMeta struct {
	cache           string
	totalMS, hashMS float64
	incr            *pta.IncrStats
	demand          demand.Stats
}

// run is one workload execution: inputs, set-up times, the timed
// operations and, with -trace 1, the replay.
type run struct {
	cfg       *config
	inputs    []*input
	ops       []*op
	setups    []time.Duration
	setupCPU  []time.Duration // process CPU time of each set-up
	window    time.Duration
	passOps   [][]*op                 // each timed pass's operations
	passDurs  []time.Duration         // each timed pass's wall time
	passCPU   []time.Duration         // each timed pass's process CPU time
	passPeaks []float64               // resident MB: each timed pass's peak
	final     *server.MetricsSnapshot // daemon /metrics at the end of the window
	failed    int

	traced   *replay // -trace 1: the replay with layer spans
	overhead float64 // -trace 1: traced over untraced replay time, minus 1

	// snapshots keeps each distinct served snapshot by digest, so a
	// mismatch can be explained field by field.
	snapshots map[[sha256.Size]byte][]byte

	// fresh marks a workload whose every pass stands for a new process
	// (a wlcheck invocation, a newly started daemon): before each set-up
	// round and each pass the heap is collected and returned to the OS,
	// outside the measured time.
	fresh bool
}

// record finishes an operation: the output is digested (after the
// self-test's tamper hook) and kept for verification.
func (r *run) record(o *op, out []byte) {
	if r.cfg.tamper != nil {
		out = r.cfg.tamper(o, out)
	}
	o.sum = sha256.Sum256(out)
	if o.kind == "miss" || o.kind == "edit" || o.kind == "hit" {
		if r.snapshots == nil {
			r.snapshots = map[[sha256.Size]byte][]byte{}
		}
		if _, ok := r.snapshots[o.sum]; !ok {
			r.snapshots[o.sum] = out
		}
	}
	o.id = len(r.ops)
	r.ops = append(r.ops, o)
}

// setup runs f setupRounds times, recording each duration.
func (r *run) setup(f func() error) error {
	for i := 0; i < setupRounds; i++ {
		r.freshen()
		w := startWatch()
		if err := f(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d, cpu := w.stop()
		r.setups = append(r.setups, d)
		r.setupCPU = append(r.setupCPU, cpu)
	}
	return nil
}

// timed runs whole passes until the window has elapsed (at least one).
// Each pass's operations, wall time and CPU time are kept. Resident
// memory is sampled throughout; each pass's peak is kept.
// before, when set, runs ahead of each pass, outside the measured time.
func (r *run) timed(pass, before func() error) error {
	m := startMemSampler()
	defer m.stop()
	for r.window == 0 || r.window < r.cfg.seconds {
		if before != nil {
			if err := before(); err != nil {
				return err
			}
		}
		r.freshen()
		m.takePeak()
		first := len(r.ops)
		w := startWatch()
		err := pass()
		d, cpu := w.stop()
		r.window += d
		r.passOps = append(r.passOps, r.ops[first:])
		r.passDurs = append(r.passDurs, d)
		r.passCPU = append(r.passCPU, cpu)
		r.passPeaks = append(r.passPeaks, m.takePeak())
		if err != nil {
			return err
		}
	}
	return nil
}

// freshen collects the heap and returns it to the OS when the workload
// is fresh.
func (r *run) freshen() {
	if r.fresh {
		debug.FreeOSMemory()
	}
}

// batchCheck is the wlcheck path at its defaults: frontend, analysis,
// checkers.
func batchCheck(in *input, v int) ([]pta.Diagnostic, error) {
	prog, err := pta.Frontend(pta.Source{in.entry: in.versions[v]}, in.entry, nil)
	if err != nil {
		return nil, err
	}
	res, err := pta.AnalyzeProgram(prog, &pta.Options{})
	if err != nil {
		return nil, err
	}
	return res.Check(nil)
}

func renderDiags(diags []pta.Diagnostic) []byte {
	var b bytes.Buffer
	if err := pta.RenderJSON(&b, diags); err != nil {
		return []byte("render: " + err.Error())
	}
	return b.Bytes()
}

func runBatchCheck(c *config) (*run, error) {
	rng := rand.New(rand.NewSource(c.seed))
	bugs, err := bugInputs()
	if err != nil {
		return nil, err
	}
	ins := append(append(suiteInputs(), bugs...), genInputs(rng)...)
	logInputs(c.log, ins)
	r := &run{cfg: c, inputs: ins, fresh: true}
	if err := r.setup(func() error {
		for _, in := range ins {
			_, _ = batchCheck(in, 0) // a failing input fails its timed operations
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := r.timed(func() error {
		for _, in := range ins {
			o := &op{kind: "check", in: in}
			w := startWatch()
			diags, err := batchCheck(in, 0)
			o.dur, o.cpu = w.stop()
			o.err = err
			r.record(o, renderDiags(diags))
		}
		return nil
	}, nil); err != nil {
		return nil, err
	}
	if c.trace {
		return r, r.replayAll(func(rp *replay) error { return rp.batch(ins) })
	}
	return r, nil
}

// analyzeOp sends POST /analyze for version v of in and records it.
func (r *run) analyzeOp(d *daemon, kind, wantCache string, in *input, v int) {
	o := &op{kind: kind, in: in, version: v}
	w := startWatch()
	resp, err := d.analyze(in.entry, in.versions[v])
	o.dur, o.cpu = w.stop()
	var out []byte
	if err == nil {
		m := resp.Meta
		o.meta = &opMeta{cache: m.Cache, totalMS: m.TotalMS, hashMS: m.HashMS, incr: m.Incremental}
		o.key, out = m.Key, resp.Snapshot
		if m.Cache != wantCache {
			err = fmt.Errorf("cache %q, want %q", m.Cache, wantCache)
		}
	}
	o.err = err
	r.record(o, out)
}

// queryOp sends POST /query (all of sites) or GET /query (one site) and
// records it.
func (r *run) queryOp(d *daemon, post bool, in *input, v int, sites []pta.QuerySite) {
	o := &op{kind: "query_get", in: in, version: v, sites: sites}
	var resp *server.QueryResponse
	var err error
	w := startWatch()
	if post {
		o.kind = "query_post"
		resp, err = d.queryPost(in.entry, in.versions[v], sites)
	} else {
		resp, err = d.queryGet(in.entry, sites[0])
	}
	o.dur, o.cpu = w.stop()
	var out []byte
	if err == nil {
		m := resp.Meta
		o.meta = &opMeta{cache: m.Cache, totalMS: m.TotalMS, hashMS: m.HashMS, demand: m.Demand}
		out = []byte(canonAnswers(resp.Answers))
		if !post && m.Cache != "warm" {
			err = fmt.Errorf("GET /query answered %q, want warm", m.Cache)
		}
	}
	o.err = err
	r.record(o, out)
}

// canonAnswers renders query answers in a form independent of JSON's
// null-versus-empty distinction.
func canonAnswers(as []server.QueryAnswer) string {
	var b bytes.Buffer
	for _, a := range as {
		fmt.Fprintf(&b, "%s|%d|%s|%q\n", a.Proc, a.Line, a.Expr, a.PointsTo)
	}
	return b.String()
}

func runServeCold(c *config) (*run, error) {
	rng := rand.New(rand.NewSource(c.seed))
	return serveCold(c, append(suiteInputs(), genInputs(rng)...))
}

// runServeFanout is serve-cold with the three FanOutShapes added. It is
// not a workload of BENCHMARK.json: at the defaults it reproduces a
// known defect of the parallel scheduler (README, "Known defects").
func runServeFanout(c *config) (*run, error) {
	rng := rand.New(rand.NewSource(c.seed))
	return serveCold(c, append(append(suiteInputs(), fanoutInputs()...), genInputs(rng)...))
}

// serveCold sends one cold miss per input to a fresh daemon per pass.
func serveCold(c *config, ins []*input) (*run, error) {
	logInputs(c.log, ins)
	r := &run{cfg: c, inputs: ins, fresh: true}
	pass := func(record bool) error {
		d, err := startDaemon()
		if err != nil {
			return err
		}
		for _, in := range ins {
			if record {
				r.analyzeOp(d, "miss", "miss", in, 0)
			} else {
				_, _ = d.analyze(in.entry, in.versions[0])
			}
		}
		if record {
			if r.final, err = d.metrics(); err != nil {
				_ = d.stop()
				return err
			}
		}
		return d.stop()
	}
	if err := r.setup(func() error { return pass(false) }); err != nil {
		return nil, err
	}
	if err := r.timed(func() error { return pass(true) }, nil); err != nil {
		return nil, err
	}
	if c.trace {
		return r, r.replayAll(func(rp *replay) error { return rp.cold(ins) })
	}
	return r, nil
}

// irRoot is the program-level IR hash the daemon keys its cache on.
func irRoot(entry, src string) (string, error) {
	prog, err := pta.Frontend(pta.Source{entry: src}, entry, nil)
	if err != nil {
		return "", err
	}
	procs, err := cfg.BuildAll(prog.Funcs)
	if err != nil {
		return "", err
	}
	return irhash.HashProcs(prog, procs).Root, nil
}

// prepareEdits appends n chained edits to in.versions. Each is the
// seeded workload.TweakNthStatement of the previous version at the
// first statement, from a seeded position on, whose tweak changes the
// program's IR hash: every edit is a cache miss.
func prepareEdits(in *input, rng *rand.Rand, n int) error {
	cur := in.versions[len(in.versions)-1]
	root, err := irRoot(in.entry, cur)
	if err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		pos := rng.Intn(1 << 20)
		for try := 0; ; try++ {
			if try == 4096 {
				return fmt.Errorf("%s: no statement tweak changes the IR hash", in.name)
			}
			next, ok := workload.TweakNthStatement(cur, pos+try)
			if !ok {
				return fmt.Errorf("%s: no statement to tweak", in.name)
			}
			nroot, err := irRoot(in.entry, next)
			if err != nil {
				return err
			}
			if nroot != root {
				in.versions = append(in.versions, next)
				cur, root = next, nroot
				break
			}
		}
	}
	return nil
}

// prepareSites draws up to postSites query sites of the program from
// its sampled sites.
func prepareSites(in *input, rng *rand.Rand) error {
	res, err := pta.Analyze(pta.Source{in.entry: in.versions[0]}, in.entry, &pta.Options{Workers: 1})
	if err != nil {
		return err
	}
	pool := res.SampleQuerySites(4 * postSites)
	for _, i := range rng.Perm(len(pool)) {
		if len(in.sites) == postSites {
			break
		}
		in.sites = append(in.sites, pool[i])
	}
	if len(in.sites) == 0 {
		return fmt.Errorf("%s: no query sites", in.name)
	}
	return nil
}

func runServeEdit(c *config) (*run, error) {
	// Separate streams keep each program's edit chain the same whatever
	// the number of passes the window holds.
	picks := rand.New(rand.NewSource(c.seed))
	edits := rand.New(rand.NewSource(c.seed + 1))
	ins := suiteInputs()
	for _, in := range ins {
		in.why += "; seeded chain of IR-changing statement tweaks and query sites"
	}
	logInputs(c.log, ins)
	for _, in := range ins {
		if err := prepareSites(in, picks); err != nil {
			return nil, err
		}
	}
	// extend draws the next visit's edits of every program.
	extend := func() error {
		for _, in := range ins {
			if err := prepareEdits(in, edits, editSteps); err != nil {
				return err
			}
		}
		return nil
	}
	r := &run{cfg: c, inputs: ins}

	// Set-up: a fresh daemon primed with one cold miss per program; the
	// last one serves the timed window.
	var d *daemon
	if err := r.setup(func() error {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		var err error
		if d, err = startDaemon(); err != nil {
			return err
		}
		for _, in := range ins {
			if _, err := d.analyze(in.entry, in.versions[0]); err != nil {
				return fmt.Errorf("priming %s: %w", in.name, err)
			}
		}
		return nil
	}); err != nil {
		if d != nil {
			_ = d.stop()
		}
		return nil, err
	}

	cur := make([]int, len(ins)) // current version per program
	err := r.timed(func() error {
		for i, in := range ins {
			for s := 0; s < editSteps; s++ {
				cur[i]++
				r.editStep(d, in, cur[i], picks)
			}
		}
		return nil
	}, extend)
	if err == nil {
		r.final, err = d.metrics()
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if c.trace {
		return r, r.replayAll(func(rp *replay) error { return rp.edit(ins, c.seed) })
	}
	return r, nil
}

// editStep is one step of the serve-edit mix on version v of in.
func (r *run) editStep(d *daemon, in *input, v int, rng *rand.Rand) {
	r.analyzeOp(d, "edit", "miss", in, v)
	r.queryOp(d, true, in, v, in.sites)
	for g := 0; g < getsPerStep; g++ {
		r.queryOp(d, false, in, v, []pta.QuerySite{in.sites[rng.Intn(len(in.sites))]})
	}
	r.analyzeOp(d, "hit", "hit", in, v)
}
