package server

import "sync"

// defaultBaselineCap bounds how many converged baselines the daemon
// keeps alive for warm-edit grafting when Config.BaselineCap is zero.
// Each baseline pins the full analysis web of one program (PTFs,
// dependency edges, intern tables), so the registry is a small LRU over
// entry names rather than a second content-addressed cache: the edit
// workflow is "same file, new body", and the entry name is the stable
// identity across those edits.
const defaultBaselineCap = 8

// maxQueryResults bounds how many decoded snapshots the daemon keeps
// for /query. A snapshot is immutable, so any number of requests read
// one at once.
const maxQueryResults = 4

// lru is a small registry keyed by entry name that evicts the least
// recently used entry beyond its capacity. The warm-edit baselines
// live in one and are single-use: a graft consumes its baseline (the
// analysis is mutated in place into the new run), so take removes it
// under the lock, and exclusive removal is what makes concurrent misses
// safe — at most one request grafts against a given baseline, the rest
// run cold. The /query snapshots live in another and are read with get,
// which keeps them.
type lru[V any] struct {
	mu        sync.Mutex
	entries   map[string]V
	order     []string // LRU order, oldest first
	cap       int
	evictions uint64
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{entries: map[string]V{}, cap: capacity}
}

// get returns the value registered under entry, refreshing its LRU
// position.
func (l *lru[V]) get(entry string) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.entries[entry]
	if ok {
		l.remove(entry)
		l.order = append(l.order, entry)
	}
	return v, ok
}

// take removes and returns the value registered under entry.
func (l *lru[V]) take(entry string) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.entries[entry]
	if ok {
		delete(l.entries, entry)
		l.remove(entry)
	}
	return v, ok
}

// put registers (or replaces) the value for entry, evicting the least
// recently used entries beyond the capacity.
func (l *lru[V]) put(entry string, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.entries[entry]; ok {
		l.remove(entry)
	}
	l.entries[entry] = v
	l.order = append(l.order, entry)
	for len(l.order) > l.cap {
		oldest := l.order[0]
		l.order = l.order[1:]
		delete(l.entries, oldest)
		l.evictions++
	}
}

// stats reports capacity, current occupancy, and lifetime evictions.
func (l *lru[V]) stats() (capacity, occupancy int, evictions uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cap, len(l.entries), l.evictions
}

func (l *lru[V]) remove(entry string) {
	for i, e := range l.order {
		if e == entry {
			l.order = append(l.order[:i], l.order[i+1:]...)
			return
		}
	}
}
