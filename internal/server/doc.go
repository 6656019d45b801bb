// Package server implements the wlpad analysis daemon: a long-lived
// HTTP/JSON service that answers pointer-analysis requests out of a
// content-addressed cache (internal/store) and only runs the worklist
// engine on a miss.
//
// The serving fast path keys a whole request by
//
//	H(snapshot format, options fingerprint, diagnostics flag, irhash.Root)
//
// where irhash.Root digests the program after frontend normalization —
// the paper's observation that analysis results are a pure function of
// the normalized program and the analysis configuration, applied at
// program granularity. A hit returns the cached pta.Snapshot bytes
// without touching the engine; the bytes are identical to what a cold
// analysis would produce (pta's bit-identity guarantee, pinned by
// TestColdWarmBitIdentity).
//
// Alongside the program entry the server maintains a per-procedure
// ledger: each analyzed procedure is recorded under
//
//	H(artifact format, options fingerprint, globals digest,
//	  closure IR hash, input-domain digest)
//
// which is exactly the set of inputs a converged PTF summary depends on
// (procedure body + transitive callees + input alias pattern + globals
// + options). After a program-level miss the server probes the ledger
// and reports, per procedure, whether its summary identity was already
// known — so editing one procedure shows up as misses for precisely the
// procedures whose content hash changed (its own closure and its
// transitive callers'), while everything else hits. The ledger is the
// accounting and artifact-reuse layer; restoring unchanged PTFs in the
// engine is the warm-edit graft: every miss leaves its result behind as
// the entry's baseline, and the entry's next miss grafts onto it.
//
// /analyze and POST /query share one miss routine (graft or cold
// analysis, snapshot, encode, store, ledger, baseline), and every miss
// holds its snapshot for /query. A query is answered from the answer
// table of the program's snapshot — held for the entry, or decoded
// from the store — so it never runs the engine when /analyze has seen
// the program, and a cold query leaves the same stored snapshot an
// /analyze miss would. Snapshots are immutable; the query path holds
// no live analysis and takes no per-entry lock. Expressions carry at
// most pta.MaxQueryDepth stars (deeper is a 400), there is no visit
// budget, and QueryMeta.Demand stays zero.
//
// Invariants:
//
//   - A cache hit never differs from recomputation: every key folds in
//     the format version and the options fingerprint, and the store
//     validates entry checksums (corruption degrades to a miss).
//   - Responses embed the cached snapshot bytes verbatim; server-side
//     metadata (timings, cache status) travels in a separate meta
//     object excluded from the identity guarantee.
//   - The engine runs under a bounded in-flight semaphore and a
//     per-request wall-clock budget; an exceeded budget is an error
//     response, never a partial result.
//   - Concurrent identical misses may each run the engine (no
//     single-flight); both converge to identical bytes, so the last
//     Put wins harmlessly.
package server
