package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"wlpa/pta"
)

// queryEntry is one program held for /query: the snapshot of the
// program whose IR root it records. Snapshots are immutable, so
// readers share an entry without locking.
type queryEntry struct {
	root string
	snap *pta.Snapshot
}

// checkDepth rejects a query expression the snapshot cannot answer.
func checkDepth(expr string) error {
	if stars := len(expr) - len(strings.TrimLeft(expr, "*")); stars > pta.MaxQueryDepth {
		return fmt.Errorf("query %q dereferences %d times; at most %d are answered", expr, stars, pta.MaxQueryDepth)
	}
	return nil
}

// handleQueryGet answers a single site query strictly from the held
// snapshot: the entry must have been analyzed or queried before (or the
// response is 404 and the client should POST the sources). No frontend,
// no hashing, no engine.
func (s *Server) handleQueryGet(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.metrics.count(&s.metrics.queryRequests)

	q := r.URL.Query()
	entry := q.Get("entry")
	proc := q.Get("proc")
	expr := q.Get("expr")
	line, err := strconv.Atoi(q.Get("line"))
	if entry == "" || proc == "" || expr == "" || err != nil {
		s.fail(w, r, t0, http.StatusBadRequest,
			fmt.Errorf("query needs entry, proc, line (integer) and expr parameters"))
		return
	}
	if err := checkDepth(expr); err != nil {
		s.fail(w, r, t0, http.StatusBadRequest, err)
		return
	}

	e, ok := s.queries.get(entry)
	if !ok {
		s.fail(w, r, t0, http.StatusNotFound,
			fmt.Errorf("no snapshot held for entry %q: POST /query with the sources first", entry))
		return
	}

	meta := QueryMeta{Cache: "warm", Key: e.root}
	answers := []QueryAnswer{{Proc: proc, Line: line, Expr: expr, PointsTo: e.snap.PointsToAt(proc, line, expr)}}
	s.metrics.count(&s.metrics.queryWarm)
	s.answerQuery(w, r, t0, entry, meta, answers)
}

// handleQueryPost answers a batch of site queries from the program's
// snapshot. It is warm when the snapshot held for the entry matches the
// sources' IR root or the store already holds one (decoded, no engine
// run); otherwise it is cold and goes through the same miss as
// /analyze, leaving a stored snapshot, a ledger record and a warm-edit
// baseline behind. Either way the answers are the ones /analyze's
// snapshot reports for the same sites.
func (s *Server) handleQueryPost(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.metrics.count(&s.metrics.queryRequests)

	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := dec.Decode(&req); err != nil {
		s.fail(w, r, t0, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Queries) == 0 {
		s.fail(w, r, t0, http.StatusBadRequest, fmt.Errorf("request carries no queries"))
		return
	}
	for _, sq := range req.Queries {
		if err := checkDepth(sq.Expr); err != nil {
			s.fail(w, r, t0, http.StatusBadRequest, err)
			return
		}
	}
	src, status, err := s.frontend(t0, req.Files, req.Entry)
	if err != nil {
		s.fail(w, r, t0, status, err)
		return
	}
	meta := QueryMeta{Key: src.ir.Root, HashMS: src.hashMS}

	snap := s.heldSnapshot(src)
	if snap != nil {
		meta.Cache = "warm"
		s.metrics.count(&s.metrics.queryWarm)
	} else {
		m, status, err := s.miss(r.Context(), src, false)
		if err != nil {
			s.fail(w, r, t0, status, err)
			return
		}
		snap = m.snap
		meta.Cache = "cold"
		meta.AnalyzeMS = m.analyzeMS
		meta.ProcHits, meta.ProcMisses = m.procHits, m.procMisses
		s.metrics.count(&s.metrics.queryCold)
	}

	answers := make([]QueryAnswer, len(req.Queries))
	for i, sq := range req.Queries {
		answers[i] = QueryAnswer{
			Proc: sq.Proc, Line: sq.Line, Expr: sq.Expr,
			PointsTo: snap.PointsToAt(sq.Proc, sq.Line, sq.Expr),
		}
	}
	s.answerQuery(w, r, t0, req.Entry, meta, answers)
}

// heldSnapshot returns a snapshot of the program without running the
// engine: the one held for the entry if its IR root matches, else one
// the store holds under either program key, decoded and held. Nil when
// neither has it.
func (s *Server) heldSnapshot(src *source) *pta.Snapshot {
	if e, ok := s.queries.get(src.entry); ok && e.root == src.ir.Root {
		return e.snap
	}
	for _, diags := range []bool{false, true} {
		data, ok := s.store.Get(s.programKey(src.ir.Root, diags))
		if !ok {
			continue
		}
		snap, err := pta.DecodeSnapshot(data)
		if err != nil {
			s.log.Warn("stored snapshot does not decode", "entry", src.entry, "err", err)
			continue
		}
		s.queries.put(src.entry, &queryEntry{root: src.ir.Root, snap: snap})
		return snap
	}
	return nil
}

func (s *Server) answerQuery(w http.ResponseWriter, r *http.Request, t0 time.Time, entry string, meta QueryMeta, answers []QueryAnswer) {
	meta.TotalMS = ms(time.Since(t0))
	s.metrics.observe("query", meta.TotalMS)
	s.logRequest(r, http.StatusOK, t0, meta.Cache, entry, 0)
	writeJSON(w, http.StatusOK, QueryResponse{Meta: meta, Answers: answers})
}
