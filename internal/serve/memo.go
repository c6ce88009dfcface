package serve

import (
	"container/list"
	"sync"

	"cppcache"
	"cppcache/internal/ledger"
	"cppcache/internal/obs"
)

// memoEntry is one memoized terminal result, keyed by the run's canonical
// spec hash. A *full* entry was captured live from a completed run and
// carries everything needed to serve a memo hit byte-identically to the
// original: the snapshot series (with its ring base and drop count, so
// SSE replay reproduces the original gap behaviour), the totals, the
// final result and the attribution profile. An *index-only* entry was
// seeded from a replayed ledger record: it knows the original run/trace
// IDs and the result digest but not the result body, so it cannot serve
// hits — its job is digest-drift detection (a re-executed spec whose
// digest differs from the ledgered one is a determinism violation) until
// the first post-boot execution promotes it to full.
type memoEntry struct {
	specHash string
	runID    int    // run that actually executed
	traceID  string // its trace
	digest   string // ledger.ResultDigest of its result

	full        bool
	totals      obs.Snapshot
	snaps       []obs.Snapshot
	snapBase    int
	snapDropped int64
	result      *cppcache.Result
	attrText    string
	attrColl    string
}

// memoStats is a point-in-time view of the store's counters.
type memoStats struct {
	Hits      int64
	Misses    int64
	Entries   int // full + index-only
	Full      int
	Drift     int64
	Evictions int64
}

// memoStore is the LRU-bounded spec-hash → terminal-result cache behind
// run memoization. Safe for concurrent use. Counting discipline: the
// registry counts exactly one hit or one miss per admitted run, so
// hits + misses always equals admitted runs (test-enforced conservation).
type memoStore struct {
	mu     sync.Mutex
	max    int
	byHash map[string]*list.Element
	lru    *list.List // front = most recently used; values are *memoEntry

	hits      int64
	misses    int64
	drift     int64
	evictions int64
}

// newMemoStore builds a store bounded to max entries (full and
// index-only alike).
func newMemoStore(max int) *memoStore {
	return &memoStore{max: max, byHash: make(map[string]*list.Element), lru: list.New()}
}

// lookup returns the full entry for hash, bumping its recency, or nil
// when the hash is unknown or only index-seeded. It does NOT count a hit
// or miss — admission owns the counting so bypassed lookups (nocache)
// still conserve.
func (m *memoStore) lookup(hash string) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.byHash[hash]
	if !ok {
		return nil
	}
	e := el.Value.(*memoEntry)
	if !e.full {
		return nil
	}
	m.lru.MoveToFront(el)
	return e
}

// countHit / countMiss record the admission decision.
func (m *memoStore) countHit() {
	m.mu.Lock()
	m.hits++
	m.mu.Unlock()
}

func (m *memoStore) countMiss() {
	m.mu.Lock()
	m.misses++
	m.mu.Unlock()
}

// store inserts (or promotes) the entry for e.specHash and applies the
// LRU bound. It returns true when an existing entry for the same hash
// carried a different result digest — a determinism violation the caller
// should log loudly (the new execution wins so the store keeps serving
// what the latest real run produced).
func (m *memoStore) store(e *memoEntry) (drift bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byHash[e.specHash]; ok {
		old := el.Value.(*memoEntry)
		if old.digest != "" && e.digest != "" && old.digest != e.digest {
			m.drift++
			drift = true
		}
		el.Value = e
		m.lru.MoveToFront(el)
		return drift
	}
	m.pushLocked(e)
	return false
}

// pushLocked inserts e, whose hash the store lacks, as the most recently
// used entry and evicts the least recently used beyond the bound. Callers
// hold m.mu.
func (m *memoStore) pushLocked(e *memoEntry) {
	m.byHash[e.specHash] = m.lru.PushFront(e)
	for m.max > 0 && m.lru.Len() > m.max {
		oldest := m.lru.Back()
		m.lru.Remove(oldest)
		delete(m.byHash, oldest.Value.(*memoEntry).specHash)
		m.evictions++
	}
}

// seed warm-starts the index from replayed ledger records: each done,
// non-memoized record with a result digest becomes an index-only entry
// (newer records win). It returns how many entries were seeded.
func (m *memoStore) seed(recs []ledger.Record) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, rec := range recs {
		if rec.State != string(StateDone) || rec.Memoized || rec.ResultDigest == "" || rec.SpecHash == "" {
			continue
		}
		e := &memoEntry{specHash: rec.SpecHash, runID: rec.RunID,
			traceID: rec.TraceID, digest: rec.ResultDigest}
		if el, ok := m.byHash[rec.SpecHash]; !ok {
			m.pushLocked(e)
		} else if !el.Value.(*memoEntry).full {
			el.Value = e
		} else {
			continue // never demote a live full entry to index-only
		}
		n++
	}
	return n
}

// stats returns a point-in-time counter view.
func (m *memoStore) stats() memoStats {
	if m == nil {
		return memoStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := memoStats{
		Hits: m.hits, Misses: m.misses,
		Entries: m.lru.Len(), Drift: m.drift, Evictions: m.evictions,
	}
	for el := m.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*memoEntry).full {
			st.Full++
		}
	}
	return st
}
