package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/irhash"
	"wlpa/internal/sem"
	"wlpa/internal/store"
	"wlpa/pta"
)

// procArtifactFormat versions the per-procedure ledger entries.
const procArtifactFormat = "wlpa/procart/v1"

// maxRequestBytes bounds the /analyze request body (source text).
const maxRequestBytes = 32 << 20

// Config configures a Server.
type Config struct {
	// Store is the content-addressed cache (required).
	Store *store.Store
	// Options are the analysis options applied to every request.
	// Workers and Timeout do not affect results and are excluded from
	// the cache key (results are bit-identical at every worker count).
	Options pta.Options
	// MaxInflight bounds concurrent engine runs (cache hits are not
	// throttled); 0 means 2. A request that cannot get a slot before
	// its context is done gets 503.
	MaxInflight int
	// BaselineCap bounds how many warm-edit baselines are held for
	// incremental grafting; 0 means 8. Each baseline pins a full
	// converged analysis, so this is the daemon's main memory knob.
	BaselineCap int
	// Logger receives structured request logs (nil = slog.Default()).
	Logger *slog.Logger
}

// Server answers analysis requests out of the cache, running the engine
// only on misses. See the package comment for the key structure.
type Server struct {
	cfg       Config
	store     *store.Store
	optsFP    string
	log       *slog.Logger
	sem       chan struct{}
	metrics   *metrics
	baselines *lru[*pta.Baseline]
	queries   *lru[*queryEntry]
	started   time.Time
}

// New builds a Server; Handler exposes it as an http.Handler.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: Config.Store is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2
	}
	if cfg.BaselineCap <= 0 {
		cfg.BaselineCap = defaultBaselineCap
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	return &Server{
		cfg:       cfg,
		store:     cfg.Store,
		optsFP:    optionsFingerprint(cfg.Options),
		log:       log,
		sem:       make(chan struct{}, cfg.MaxInflight),
		metrics:   newMetrics(),
		baselines: newLRU[*pta.Baseline](cfg.BaselineCap),
		queries:   newLRU[*queryEntry](maxQueryResults),
		started:   time.Now(),
	}, nil
}

// optionsFingerprint renders the result-affecting analysis options.
// Workers and Timeout are deliberately excluded: they change wall-clock
// behaviour, never the answer (pinned by the engine equivalence tests
// and TestSnapshotBytesDeterministic).
func optionsFingerprint(o pta.Options) string {
	return fmt.Sprintf("policy=%d maxptfs=%d combine=%v forcefull=%v",
		o.Policy, o.MaxPTFs, o.CombineOffsets, o.ForceFullPasses)
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /analyze", s.handleAnalyze)
	mux.HandleFunc("GET /query", s.handleQueryGet)
	mux.HandleFunc("POST /query", s.handleQueryPost)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot()
	snap.UptimeSeconds = time.Since(s.started).Seconds()
	snap.Store = s.store.Stats()
	snap.Baselines.Capacity, snap.Baselines.Occupancy, snap.Baselines.Evictions = s.baselines.stats()
	_, snap.Query.Occupancy, snap.Query.Evictions = s.queries.stats()
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.metrics.mu.Lock()
	s.metrics.analyzeRequests++
	s.metrics.inflight++
	s.metrics.mu.Unlock()
	defer func() {
		s.metrics.mu.Lock()
		s.metrics.inflight--
		s.metrics.mu.Unlock()
	}()

	var req AnalyzeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := dec.Decode(&req); err != nil {
		s.fail(w, r, t0, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	src, status, err := s.frontend(t0, req.Files, req.Entry)
	if err != nil {
		s.fail(w, r, t0, status, err)
		return
	}
	key := s.programKey(src.ir.Root, req.Diagnostics)
	meta := AnalyzeMeta{Key: key.String(), HashMS: src.hashMS}

	if data, ok := s.store.Get(key); ok {
		meta.Cache = "hit"
		meta.TotalMS = ms(time.Since(t0))
		s.metrics.count(&s.metrics.analyzeHits)
		s.metrics.observe("total", meta.TotalMS)
		s.logRequest(r, http.StatusOK, t0, "hit", req.Entry, len(data))
		writeJSON(w, http.StatusOK, AnalyzeResponse{Meta: meta, Snapshot: data})
		return
	}

	m, status, err := s.miss(r.Context(), src, req.Diagnostics)
	if err != nil {
		s.fail(w, r, t0, status, err)
		return
	}
	meta.Cache = "miss"
	meta.AnalyzeMS = m.analyzeMS
	meta.SnapshotMS = m.snapshotMS
	meta.ProcHits, meta.ProcMisses = m.procHits, m.procMisses
	meta.Incremental = m.incr
	meta.TotalMS = ms(time.Since(t0))
	s.metrics.count(&s.metrics.analyzeMisses)
	s.metrics.observe("total", meta.TotalMS)
	s.logRequest(r, http.StatusOK, t0, "miss", req.Entry, len(m.data))
	writeJSON(w, http.StatusOK, AnalyzeResponse{Meta: meta, Snapshot: m.data})
}

// source is one request's program after the frontend: its flow graphs,
// built once and shared between hashing and a warm-edit graft, and its
// IR hash.
type source struct {
	entry  string
	prog   *sem.Program
	procs  map[*cast.FuncDecl]*cfg.Proc
	ir     *irhash.Program
	hashMS float64
}

// frontend parses, builds and hashes a request's sources: cheap
// relative to the engine, and the only work a warm request pays. Its
// time is reported from the request's start t0. On failure it also
// returns the response status.
func (s *Server) frontend(t0 time.Time, files map[string]string, entry string) (*source, int, error) {
	if len(files) == 0 || entry == "" || files[entry] == "" {
		return nil, http.StatusBadRequest, fmt.Errorf("request must carry files and an entry naming one of them")
	}
	prog, err := pta.Frontend(pta.Source(files), entry, s.cfg.Options.Predefined)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	procs, err := cfg.BuildAll(prog.Funcs)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	src := &source{entry: entry, prog: prog, procs: procs, ir: irhash.HashProcs(prog, procs)}
	src.hashMS = ms(time.Since(t0))
	s.metrics.observe("hash", src.hashMS)
	return src, 0, nil
}

// programKey is the store key of a program's snapshot.
func (s *Server) programKey(root string, diags bool) store.Key {
	return store.KeyOf("program", pta.SnapshotFormat, s.optsFP, fmt.Sprintf("diags=%v", diags), root)
}

// missOutcome is what a miss produced: the snapshot, its stored bytes,
// and the figures the response meta reports.
type missOutcome struct {
	snap                  *pta.Snapshot
	data                  []byte
	analyzeMS, snapshotMS float64
	incr                  *pta.IncrStats
	procHits, procMisses  []string
}

// miss is the one path that runs the engine, shared by /analyze and
// POST /query: under the in-flight bound it grafts onto the entry's
// warm-edit baseline or analyzes cold, builds and encodes the snapshot,
// stores it, records the per-procedure ledger, and registers the
// result as the entry's next baseline and its snapshot for /query. On
// failure it also returns the response status.
func (s *Server) miss(ctx context.Context, src *source, diags bool) (*missOutcome, int, error) {
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		return nil, http.StatusServiceUnavailable, fmt.Errorf("no analysis slot available: %w", ctx.Err())
	}

	// A registered baseline for this entry turns the miss into a
	// warm-edit graft: surviving PTFs are restored and only the edit's
	// dirty cone reconverges. The result is bit-identical to the cold
	// path (pinned by difftest.CheckIncremental), so the snapshot bytes
	// and cache entry are the same either way.
	ta := time.Now()
	opts := s.cfg.Options
	var res *pta.Result
	var err error
	if bl, ok := s.baselines.take(src.entry); ok {
		res, err = pta.AnalyzeIncrementalPrepared(bl, src.prog, src.procs, src.ir, &opts)
	} else {
		res, err = pta.AnalyzeProgram(src.prog, &opts)
	}
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	m := &missOutcome{analyzeMS: ms(time.Since(ta)), incr: res.Incremental()}
	s.metrics.observe("analyze", m.analyzeMS)
	s.metrics.incremental(m.incr)

	ts := time.Now()
	key := s.programKey(src.ir.Root, diags)
	if m.snap, err = res.Snapshot(&pta.SnapshotOptions{Fingerprint: key.String(), Diagnostics: diags}); err != nil {
		return nil, http.StatusInternalServerError, err
	}
	if m.data, err = m.snap.Encode(); err != nil {
		return nil, http.StatusInternalServerError, err
	}
	m.snapshotMS = ms(time.Since(ts))
	s.metrics.observe("snapshot", m.snapshotMS)

	if err := s.store.Put(key, m.data); err != nil {
		// A failed write-back degrades future requests to misses; this
		// one is still correct.
		s.log.Warn("cache write failed", "key", key.String(), "err", err)
	}
	m.procHits, m.procMisses = s.recordProcLedger(res, src.ir, m.snap.ModRef)
	// Every successful miss leaves a baseline behind for the entry's
	// next edit. The snapshot above is already built, so consuming this
	// result later cannot invalidate anything a client was served.
	s.baselines.put(src.entry, pta.BaselineFromHash(res, src.ir, &opts))
	s.queries.put(src.entry, &queryEntry{root: src.ir.Root, snap: m.snap})
	return m, 0, nil
}

// procArtifact is one per-procedure ledger value: the sound,
// context-independent summary identity and the artifacts it licenses
// reusing (see doc.go — feeding these back into the engine is the
// separate incremental re-analysis roadmap item).
type procArtifact struct {
	Format       string   `json:"format"`
	Proc         string   `json:"proc"`
	NumPTFs      int      `json:"num_ptfs"`
	DomainDigest string   `json:"domain_digest"`
	ModRef       []string `json:"mod_ref,omitempty"`
}

// recordProcLedger probes and populates the per-procedure ledger after
// a program-level miss, returning which procedures' summary identities
// were already known. Keys fold in everything a converged summary
// depends on: options, globals, the SCC-condensed transitive closure
// IR, and the converged input-domain digest. modRef is the result's
// MOD/REF dump, as the snapshot already holds it.
func (s *Server) recordProcLedger(res *pta.Result, ir *irhash.Program, modRef []string) (hits, misses []string) {
	domains := res.DomainDigests()
	modRefByProc := map[string][]string{}
	for _, line := range modRef {
		for i := 0; i < len(line); i++ {
			if line[i] == ':' {
				modRefByProc[line[:i]] = append(modRefByProc[line[:i]], line)
				break
			}
		}
	}
	procs := res.Procedures()
	sort.Strings(procs)
	for _, proc := range procs {
		ph := ir.ProcHash(proc)
		dom, ok := domains[proc]
		if ph == nil || !ok {
			continue // library model or stub without source IR
		}
		pkey := store.KeyOf("proc", procArtifactFormat, s.optsFP, ir.Globals, ph.Closure, dom)
		if _, found := s.store.Get(pkey); found {
			hits = append(hits, proc)
			continue
		}
		misses = append(misses, proc)
		art := procArtifact{
			Format:       procArtifactFormat,
			Proc:         proc,
			NumPTFs:      res.NumPTFs(proc),
			DomainDigest: dom,
			ModRef:       modRefByProc[proc],
		}
		if data, err := json.Marshal(art); err == nil {
			if err := s.store.Put(pkey, data); err != nil {
				s.log.Warn("proc ledger write failed", "proc", proc, "err", err)
			}
		}
	}
	s.metrics.mu.Lock()
	s.metrics.procHits += uint64(len(hits))
	s.metrics.procMisses += uint64(len(misses))
	s.metrics.mu.Unlock()
	return hits, misses
}

func (s *Server) fail(w http.ResponseWriter, r *http.Request, t0 time.Time, status int, err error) {
	s.metrics.count(&s.metrics.errors)
	s.logRequest(r, status, t0, "", "", 0)
	s.log.Warn("request failed", "path", r.URL.Path, "status", status, "err", err)
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func (s *Server) logRequest(r *http.Request, status int, t0 time.Time, cache, entry string, bytes int) {
	attrs := []any{
		"method", r.Method,
		"path", r.URL.Path,
		"status", status,
		"dur_ms", ms(time.Since(t0)),
	}
	if cache != "" {
		attrs = append(attrs, "cache", cache)
	}
	if entry != "" {
		attrs = append(attrs, "entry", entry)
	}
	if bytes > 0 {
		attrs = append(attrs, "bytes", bytes)
	}
	s.log.Info("request", attrs...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
