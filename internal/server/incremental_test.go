package server

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"wlpa/pta"
)

// TestWarmEditGraft drives the daemon through the edit workflow: a cold
// miss registers a baseline, and the next miss for the same entry runs
// through the incremental engine — reporting graft statistics in the
// response meta while producing a snapshot byte-identical to what a
// cold daemon computes for the edited program.
func TestWarmEditGraft(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	c := &Client{Base: ts.URL}

	cold, _, err := c.Analyze(context.Background(), map[string]string{"edit.c": editBase}, "edit.c", false)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Meta.Cache != "miss" {
		t.Fatalf("cold: cache=%q, want miss", cold.Meta.Cache)
	}
	if cold.Meta.Incremental != nil {
		t.Fatalf("first miss has no baseline, got incremental stats %+v", cold.Meta.Incremental)
	}

	// A repeat of the base program is a hit and must leave the baseline
	// alone for the edit that follows.
	hit, _, err := c.Analyze(context.Background(), map[string]string{"edit.c": editBase}, "edit.c", false)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Meta.Cache != "hit" || hit.Meta.Incremental != nil {
		t.Fatalf("repeat request: %+v", hit.Meta)
	}

	edited, _, err := c.Analyze(context.Background(), map[string]string{"edit.c": editChanged}, "edit.c", false)
	if err != nil {
		t.Fatal(err)
	}
	inc := edited.Meta.Incremental
	if edited.Meta.Cache != "miss" || inc == nil {
		t.Fatalf("edited request did not graft: %+v", edited.Meta)
	}
	if inc.Fallback != "" {
		t.Fatalf("graft fell back: %q", inc.Fallback)
	}
	if inc.DirtyProcs == 0 || inc.CleanProcs == 0 {
		t.Fatalf("graft stats implausible for a single-proc edit: %+v", inc)
	}

	// Bit-identity: the grafted snapshot equals a cold daemon's answer
	// for the edited program.
	_, ts2 := newTestServer(t, t.TempDir())
	c2 := &Client{Base: ts2.URL}
	ref, _, err := c2.Analyze(context.Background(), map[string]string{"edit.c": editChanged}, "edit.c", false)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Meta.Incremental != nil {
		t.Fatalf("fresh daemon grafted: %+v", ref.Meta)
	}
	if !bytes.Equal(edited.Snapshot, ref.Snapshot) {
		t.Fatalf("grafted snapshot differs from cold snapshot")
	}

	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Incremental.Grafts != 1 || m.Incremental.Fallbacks != 0 {
		t.Fatalf("incremental counters: %+v", m.Incremental)
	}

	// The graft consumed the old baseline and registered a new one
	// wrapped around the edited result — a further edit grafts again.
	if _, ok := srv.baselines.take("edit.c"); !ok {
		t.Fatalf("no baseline registered after the grafted miss")
	}
}

// TestBaselineRegistryLRU pins the registry semantics: take is
// exclusive, put replaces, and the oldest entry is evicted beyond the
// cap.
func TestBaselineRegistryLRU(t *testing.T) {
	srv, _ := newTestServer(t, "")
	br := srv.baselines
	if capacity, _, _ := br.stats(); capacity != defaultBaselineCap {
		t.Fatalf("zero capacity resolved to %d, want %d", capacity, defaultBaselineCap)
	}
	mk := func() *pta.Baseline { return &pta.Baseline{} }
	taken := func(l *lru[*pta.Baseline], entry string) bool {
		_, ok := l.take(entry)
		return ok
	}

	if taken(br, "a") {
		t.Fatal("empty registry returned a baseline")
	}
	b1 := mk()
	br.put("a", b1)
	if got, _ := br.take("a"); got != b1 {
		t.Fatalf("take returned %p, want %p", got, b1)
	}
	if taken(br, "a") {
		t.Fatal("take is not exclusive")
	}

	b2 := mk()
	br.put("a", mk())
	br.put("a", b2) // replace keeps one slot per entry
	for i := 0; i < defaultBaselineCap; i++ {
		br.put(string(rune('b'+i)), mk())
	}
	if taken(br, "a") {
		t.Fatal("oldest entry not evicted beyond the cap")
	}
	if !taken(br, string(rune('b'))) {
		t.Fatal("in-cap entry evicted")
	}
	if _, _, ev := br.stats(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}

	// A custom capacity holds exactly that many entries.
	small := newLRU[*pta.Baseline](2)
	small.put("x", mk())
	small.put("y", mk())
	small.put("z", mk())
	if taken(small, "x") {
		t.Fatal("cap-2 registry held three entries")
	}
	if cap2, occ, ev := small.stats(); cap2 != 2 || occ != 2 || ev != 1 {
		t.Fatalf("cap-2 stats: cap=%d occ=%d ev=%d", cap2, occ, ev)
	}
}

// editGlobals adds a global to editBase: the baseline no longer
// applies, whatever the scheduler.
const editGlobals = `
int gx, gy, gz;
int *fp, *gp;
int hx, hy;
int *hp;
void g(void) { gp = &gy; }
void f(void) { fp = &gx; g(); }
void h(void) { hp = &hx; }
int main(void) { f(); h(); return 0; }
`

// TestFallbackReasonsInMetrics pins that /metrics counts graft
// fallbacks by reason.
func TestFallbackReasonsInMetrics(t *testing.T) {
	_, ts := newTestServer(t, "")
	c := &Client{Base: ts.URL}
	ctx := context.Background()
	for _, src := range []string{editBase, editGlobals} {
		if _, _, err := c.Analyze(ctx, map[string]string{"edit.c": src}, "edit.c", false); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"globals changed": 1}
	if m.Incremental.Fallbacks != 1 || !reflect.DeepEqual(m.Incremental.FallbackReasons, want) {
		t.Fatalf("incremental metrics: %+v, want fallback reasons %v", m.Incremental, want)
	}
}
