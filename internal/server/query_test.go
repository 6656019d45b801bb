package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"wlpa/internal/demand"
	"wlpa/internal/workload"
	"wlpa/pta"
)

// queryRef computes the reference answers the daemon must reproduce:
// the whole-program Result's PointsToAt at each site.
func queryRef(t *testing.T, src string, sites []SiteQuery) [][]string {
	t.Helper()
	res, err := pta.AnalyzeSource("q.c", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]string, len(sites))
	for i, s := range sites {
		out[i] = res.PointsToAt(s.Proc, s.Line, s.Expr)
	}
	return out
}

// TestQueryEndpoint drives POST /query through its cold and warm paths
// and pins the answers against the whole-program result.
func TestQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	sites := []SiteQuery{
		{Proc: "main", Line: 9, Expr: "fp"},
		{Proc: "main", Line: 9, Expr: "gp"},
		{Proc: "main", Line: 9, Expr: "hp"},
		{Proc: "f", Line: 7, Expr: "fp"},
		{Proc: "main", Line: 9, Expr: "*fp"},
	}
	want := queryRef(t, editBase, sites)
	files := map[string]string{"q.c": editBase}

	cold, err := c.Query(ctx, files, "q.c", sites)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Meta.Cache != "cold" || cold.Meta.AnalyzeMS == 0 {
		t.Fatalf("first query: %+v, want a cold run", cold.Meta)
	}
	if len(cold.Meta.ProcMisses) == 0 {
		t.Fatalf("cold query did not record the proc ledger: %+v", cold.Meta)
	}
	if cold.Meta.Demand != (demand.Stats{}) {
		t.Fatalf("demand stats %+v, want zero", cold.Meta.Demand)
	}
	for i, a := range cold.Answers {
		if !reflect.DeepEqual(nonEmpty(a.PointsTo), nonEmpty(want[i])) {
			t.Errorf("cold %s:%d %q: got %v, want %v", a.Proc, a.Line, a.Expr, a.PointsTo, want[i])
		}
	}
	// The first site is an assigned pointer — a trivially-empty oracle
	// would pass DeepEqual above.
	if len(cold.Answers[0].PointsTo) == 0 {
		t.Fatal("fp answered empty at main's return")
	}

	warm, err := c.Query(ctx, files, "q.c", sites)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Meta.Cache != "warm" || warm.Meta.AnalyzeMS != 0 {
		t.Fatalf("repeat query: %+v", warm.Meta)
	}
	if !reflect.DeepEqual(warm.Answers, cold.Answers) {
		t.Fatalf("warm answers differ from cold:\n%v\n%v", warm.Answers, cold.Answers)
	}

	// The cold query stored the program's snapshot: /analyze hits.
	an, _, err := c.Analyze(ctx, files, "q.c", false)
	if err != nil {
		t.Fatal(err)
	}
	if an.Meta.Cache != "hit" {
		t.Fatalf("/analyze after a cold query: cache=%q, want hit", an.Meta.Cache)
	}

	// An edit changes the IR root: the held snapshot no longer applies
	// and the query runs cold again.
	edited, err := c.Query(ctx, map[string]string{"q.c": editChanged}, "q.c", sites[:1])
	if err != nil {
		t.Fatal(err)
	}
	if edited.Meta.Cache != "cold" || edited.Meta.Key == cold.Meta.Key {
		t.Fatalf("edited query served stale state: %+v", edited.Meta)
	}

	// The snapshot answers two stars at most.
	if _, err := c.Query(ctx, files, "q.c", []SiteQuery{{Proc: "main", Line: 9, Expr: "***fp"}}); err == nil ||
		!strings.Contains(err.Error(), "at most 2") {
		t.Fatalf("three-star query: err=%v, want a refusal", err)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Query.Requests != 4 || m.Query.Cold != 2 || m.Query.Warm != 1 {
		t.Fatalf("query counters: %+v", m.Query)
	}
	if m.Query.Occupancy != 1 {
		t.Fatalf("query registry occupancy = %d, want 1 (same entry replaced)", m.Query.Occupancy)
	}
	// Both cold queries left a baseline; the second consumed the first.
	if m.Baselines.Capacity != defaultBaselineCap || m.Baselines.Occupancy != 1 {
		t.Fatalf("baseline metrics: %+v", m.Baselines)
	}
	if h := m.LatencyMS["query"]; h == nil || h.Count != 3 {
		t.Fatalf("query latency histogram: %+v", m.LatencyMS["query"])
	}
}

// TestQueryAfterAnalyzeIsWarm pins that a POST /query right after
// /analyze of the same program answers from the snapshot the miss left
// behind without running the engine, and that its answers equal the
// in-process Result.PointsToAt at every sampled site of every suite
// program.
func TestQueryAfterAnalyzeIsWarm(t *testing.T) {
	_, ts := newTestServer(t, "")
	c := &Client{Base: ts.URL}
	ctx := context.Background()
	for _, b := range workload.Suite() {
		entry := b.Name + ".c"
		files := map[string]string{entry: b.Source}
		ref, err := pta.AnalyzeSource(entry, b.Source, &pta.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var sites []SiteQuery
		for _, s := range ref.SampleQuerySites(16) {
			sites = append(sites, SiteQuery{Proc: s.Proc, Line: s.Line, Expr: s.Expr})
		}
		if _, _, err := c.Analyze(ctx, files, entry, false); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		before, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Query(ctx, files, entry, sites)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		after, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Meta.Cache != "warm" || resp.Meta.AnalyzeMS != 0 {
			t.Fatalf("%s: query after /analyze: %+v", b.Name, resp.Meta)
		}
		if n0, n1 := before.LatencyMS["analyze"].Count, after.LatencyMS["analyze"].Count; n0 != n1 {
			t.Fatalf("%s: the warm query ran the engine (analyze count %d -> %d)", b.Name, n0, n1)
		}
		for i, a := range resp.Answers {
			if want := ref.PointsToAt(sites[i].Proc, sites[i].Line, sites[i].Expr); !reflect.DeepEqual(nonEmpty(a.PointsTo), nonEmpty(want)) {
				t.Errorf("%s %s:%d %q: got %v, want %v", b.Name, a.Proc, a.Line, a.Expr, a.PointsTo, want)
			}
		}
	}
}

// TestQueryGet pins the GET path: answered from the held snapshot, 404
// before any POST, 400 on malformed parameters and on more than two
// stars.
func TestQueryGet(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	get := func(params url.Values) (*QueryResponse, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/query?" + params.Encode())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr QueryResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				t.Fatal(err)
			}
		}
		return &qr, resp.StatusCode
	}

	params := url.Values{"entry": {"q.c"}, "proc": {"main"}, "line": {"9"}, "expr": {"fp"}}
	if _, code := get(params); code != http.StatusNotFound {
		t.Fatalf("GET before any POST: HTTP %d, want 404", code)
	}

	sites := []SiteQuery{{Proc: "main", Line: 9, Expr: "fp"}}
	post, err := c.Query(ctx, map[string]string{"q.c": editBase}, "q.c", sites)
	if err != nil {
		t.Fatal(err)
	}

	qr, code := get(params)
	if code != http.StatusOK {
		t.Fatalf("warm GET: HTTP %d", code)
	}
	if qr.Meta.Cache != "warm" || len(qr.Answers) != 1 {
		t.Fatalf("warm GET response: %+v", qr)
	}
	if !reflect.DeepEqual(qr.Answers[0], post.Answers[0]) {
		t.Fatalf("GET answer %v differs from POST answer %v", qr.Answers[0], post.Answers[0])
	}

	bad := url.Values{"entry": {"q.c"}, "proc": {"main"}, "line": {"nine"}, "expr": {"fp"}}
	if _, code := get(bad); code != http.StatusBadRequest {
		t.Fatalf("malformed line: HTTP %d, want 400", code)
	}
	deep := url.Values{"entry": {"q.c"}, "proc": {"main"}, "line": {"9"}, "expr": {"***fp"}}
	if _, code := get(deep); code != http.StatusBadRequest {
		t.Fatalf("three-star query: HTTP %d, want 400", code)
	}
}

// TestQueryRegistryLRU pins the snapshot LRU: non-consuming get,
// replacement, eviction beyond capacity.
func TestQueryRegistryLRU(t *testing.T) {
	srv, _ := newTestServer(t, "")
	qr := srv.queries
	mk := func(root string) *queryEntry { return &queryEntry{root: root} }
	root := func(entry string) string {
		e, ok := qr.get(entry)
		if !ok {
			return ""
		}
		return e.root
	}

	qr.put("a", mk("r1"))
	if got := root("a"); got != "r1" {
		t.Fatalf("get(a) = %q", got)
	}
	if root("a") == "" {
		t.Fatal("get consumed the entry")
	}
	qr.put("a", mk("r2"))
	if got := root("a"); got != "r2" {
		t.Fatalf("replacement kept old root %q", got)
	}
	for i := 0; i < maxQueryResults-1; i++ {
		qr.put(fmt.Sprintf("e%d", i), mk("r"))
	}
	// At capacity: refresh "a", then one more put must evict the oldest
	// un-refreshed entry (e0), not "a".
	root("a")
	qr.put("z", mk("r"))
	if root("e0") != "" {
		t.Fatal("LRU entry survived beyond capacity")
	}
	if root("a") == "" {
		t.Fatal("recently-used entry evicted")
	}
	if _, occ, ev := qr.stats(); occ != maxQueryResults || ev != 1 {
		t.Fatalf("stats: occ=%d ev=%d", occ, ev)
	}
}

// nonEmpty normalizes nil vs empty slices for comparison (JSON
// round-trips nil slices as null/absent).
func nonEmpty(s []string) []string {
	if len(s) == 0 {
		return nil
	}
	return s
}
