package server

import (
	"encoding/json"

	"wlpa/internal/demand"
	"wlpa/pta"
)

// AnalyzeRequest is the POST /analyze body.
type AnalyzeRequest struct {
	// Files maps file name to source text; Entry names the entry
	// translation unit (the others are available for #include).
	Files map[string]string `json:"files"`
	Entry string            `json:"entry"`
	// Diagnostics additionally runs the checker suite and embeds its
	// findings in the snapshot. Folded into the cache key.
	Diagnostics bool `json:"diagnostics,omitempty"`
}

// AnalyzeMeta is the server-side metadata of one /analyze response. It
// is excluded from the bit-identity guarantee (timings vary run to
// run); everything deterministic lives in the snapshot.
type AnalyzeMeta struct {
	// Cache is "hit" (snapshot served from the store, engine not run)
	// or "miss" (engine ran; the result was written back).
	Cache string `json:"cache"`
	// Key is the program-level cache key, hex-encoded.
	Key string `json:"key"`
	// Timings in milliseconds: frontend+hashing, engine (0 on a hit),
	// snapshot build+encode (0 on a hit), end-to-end.
	HashMS     float64 `json:"hash_ms"`
	AnalyzeMS  float64 `json:"analyze_ms"`
	SnapshotMS float64 `json:"snapshot_ms"`
	TotalMS    float64 `json:"total_ms"`
	// On a miss, the per-procedure ledger outcome: procedures whose
	// summary identity (closure IR + input domain + globals + options)
	// was already recorded, and those recorded for the first time. A
	// single-procedure edit shows up here as misses for exactly the
	// procedures whose content hash changed. Empty on a hit (the
	// ledger is not consulted — the whole program matched).
	ProcHits   []string `json:"proc_hits,omitempty"`
	ProcMisses []string `json:"proc_misses,omitempty"`
	// Incremental is set when a warm-edit baseline was available for the
	// entry and the miss ran through the incremental engine: what the
	// graft restored versus reconverged, or the Fallback reason it ran
	// cold. Nil on hits and on misses with no registered baseline. Like
	// the timings it is advisory — the snapshot bytes are identical
	// either way.
	Incremental *pta.IncrStats `json:"incremental,omitempty"`
}

// AnalyzeResponse is the POST /analyze response. Snapshot holds the
// encoded pta.Snapshot verbatim as stored — byte-identical between a
// cold miss and every subsequent hit.
type AnalyzeResponse struct {
	Meta     AnalyzeMeta     `json:"meta"`
	Snapshot json.RawMessage `json:"snapshot"`
}

// ErrorResponse is the body of any non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// SiteQuery names one points-to query site: the value of expr (an
// identifier with optional * prefixes) at the last node at or before
// line in proc — the same resolution rules as pta.Result.PointsToAt.
type SiteQuery struct {
	Proc string `json:"proc"`
	Line int    `json:"line"`
	Expr string `json:"expr"`
}

// QueryRequest is the POST /query body. Files and Entry are as in
// AnalyzeRequest; Queries are answered in order from the program's
// snapshot, so an expression may carry at most pta.MaxQueryDepth stars
// (a deeper one makes the request a 400).
type QueryRequest struct {
	Files   map[string]string `json:"files"`
	Entry   string            `json:"entry"`
	Queries []SiteQuery       `json:"queries"`
}

// QueryAnswer is one answered site: the query echoed back plus the
// sorted points-to set (empty for a non-pointer or unresolvable site —
// same convention as the snapshot's query records).
type QueryAnswer struct {
	Proc     string   `json:"proc"`
	Line     int      `json:"line"`
	Expr     string   `json:"expr"`
	PointsTo []string `json:"points_to"`
}

// QueryMeta is the server-side metadata of one /query response.
type QueryMeta struct {
	// Cache is "warm" (answered from a snapshot held for the entry or
	// found in the store, engine not run) or "cold" (the request ran
	// the same miss as /analyze first).
	Cache string `json:"cache"`
	// Key is the program's IR root hash — the identity the snapshot is
	// held under.
	Key string `json:"key"`
	// Timings in milliseconds (hash is 0 on GETs, analyze 0 unless
	// cold).
	HashMS    float64 `json:"hash_ms,omitempty"`
	AnalyzeMS float64 `json:"analyze_ms,omitempty"`
	TotalMS   float64 `json:"total_ms"`
	// On a cold run, the per-procedure ledger outcome (see AnalyzeMeta).
	ProcHits   []string `json:"proc_hits,omitempty"`
	ProcMisses []string `json:"proc_misses,omitempty"`
	// Demand is always zero: answers come from the snapshot table, not
	// from the demand walker. The field stays so existing readers of
	// the response keep decoding it.
	Demand demand.Stats `json:"demand"`
}

// QueryResponse is the /query response body.
type QueryResponse struct {
	Meta    QueryMeta     `json:"meta"`
	Answers []QueryAnswer `json:"answers"`
}
