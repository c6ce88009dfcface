package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cppcache/internal/ledger"
)

func newTestServerWith(t *testing.T, cfg Config) (*httptest.Server, *Registry) {
	t.Helper()
	reg := NewRegistryWith(cfg, nil)
	ts := httptest.NewServer(NewServer(reg, nil))
	t.Cleanup(ts.Close)
	return ts, reg
}

// fetchText GETs a path and returns the body, asserting the status.
func fetchText(t *testing.T, ts *httptest.Server, path string, wantStatus int) string {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %s)", path, resp.StatusCode, wantStatus, body)
	}
	return body
}

// TestMemoHitIsByteIdenticalAndInert is the memoization acceptance test:
// an identical re-submitted spec is answered from the memo store with the
// original's exact observable surface — result digest, snapshot series,
// totals and attribution profile — plus explicit provenance, while
// consuming no execution slot. Hits and misses conserve against admitted
// runs.
func TestMemoHitIsByteIdenticalAndInert(t *testing.T) {
	ts, reg := newTestServerWith(t, Config{MemoEntries: 8})
	spec := `{"workload":"mst","config":"CPP","functional":true,"scale":1,"attr":true}`

	first := launch(t, ts, spec)
	firstDone := waitDone(t, ts, first.ID)
	if firstDone.State != StateDone {
		t.Fatalf("first run: state %s (%s)", firstDone.State, firstDone.Error)
	}
	if firstDone.Memoized {
		t.Fatal("first execution must not be marked memoized")
	}
	firstProfile := fetchText(t, ts, fmt.Sprintf("/runs/%d/profile", first.ID), http.StatusOK)

	second := launch(t, ts, spec)
	if !second.Memoized {
		t.Fatal("identical spec was not memoized")
	}
	if second.MemoSourceRun != first.ID || second.MemoSourceTrace != firstDone.TraceID {
		t.Fatalf("memo provenance = run %d trace %q, want run %d trace %q",
			second.MemoSourceRun, second.MemoSourceTrace, first.ID, firstDone.TraceID)
	}
	if second.State != StateDone {
		t.Fatalf("memoized run state = %s, want done at birth", second.State)
	}
	if second.Finished == nil || !second.Finished.Equal(second.Created) {
		t.Fatal("memoized run must be born terminal (finished == created)")
	}

	// Result digests must be byte-identical (the result JSON canonicalises
	// to the same bytes).
	d1, err := ledger.ResultDigest(firstDone.Result)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ledger.ResultDigest(second.Result)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("memoized result digest %s != original %s", d2, d1)
	}
	if !reflect.DeepEqual(firstDone.Totals, second.Totals) {
		t.Fatal("memoized totals differ from the original's")
	}
	if second.Intervals != firstDone.Intervals {
		t.Fatalf("memoized intervals %d != original %d", second.Intervals, firstDone.Intervals)
	}

	// Snapshot series must replay identically, ordinal for ordinal.
	origRun, _ := reg.Get(first.ID)
	memoRun, _ := reg.Get(second.ID)
	s1, f1 := origRun.SnapsFrom(0)
	s2, f2 := memoRun.SnapsFrom(0)
	if f1 != f2 || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("memoized snapshot series differs (from %d vs %d, %d vs %d snaps)",
			f2, f1, len(s2), len(s1))
	}

	// The attribution profile replays byte-identically too (modulo the
	// header line, which names the run id).
	memoProfile := fetchText(t, ts, fmt.Sprintf("/runs/%d/profile", second.ID), http.StatusOK)
	trim := func(s string) string {
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			return s[i+1:]
		}
		return s
	}
	if trim(memoProfile) != trim(firstProfile) {
		t.Fatal("memoized profile differs from the original's")
	}

	// Conservation: 2 admitted runs == 1 hit + 1 miss, visible both in
	// Counters and on /metrics.
	c := reg.Counters()
	if c.MemoHits != 1 || c.MemoMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", c.MemoHits, c.MemoMisses)
	}
	metrics := parseExposition(t, fetchText(t, ts, "/metrics", http.StatusOK))
	if metrics["cppserved_memo_hits_total"] != 1 || metrics["cppserved_memo_misses_total"] != 1 {
		t.Fatalf("exposition hits/misses = %v/%v, want 1/1",
			metrics["cppserved_memo_hits_total"], metrics["cppserved_memo_misses_total"])
	}
	if metrics[`cppserved_memo_entries{kind="full"}`] != 1 {
		t.Fatalf("full memo entries = %v, want 1", metrics[`cppserved_memo_entries{kind="full"}`])
	}
	if metrics["cppserved_memo_digest_drift_total"] != 0 {
		t.Fatal("digest drift counted on identical replays")
	}

	// The memoized run's ledger record carries provenance, and memoized
	// records never become memo sources themselves.
	var memoRec *ledger.Record
	for _, rec := range reg.FleetRecords() {
		if rec.RunID == second.ID {
			r := rec
			memoRec = &r
		}
	}
	if memoRec == nil {
		t.Fatal("memoized run missing from fleet records")
	}
	if !memoRec.Memoized || memoRec.MemoSource != first.ID {
		t.Fatalf("memo record: memoized=%v source=%d, want true/%d",
			memoRec.Memoized, memoRec.MemoSource, first.ID)
	}
}

// TestMemoNocacheBypass: ?nocache=1 forces a real execution even with a
// servable memo entry, and still counts as a miss (conservation holds).
func TestMemoNocacheBypass(t *testing.T) {
	ts, reg := newTestServerWith(t, Config{MemoEntries: 8})
	spec := `{"workload":"mst","config":"CPP","functional":true,"scale":1}`

	first := launch(t, ts, spec)
	waitDone(t, ts, first.ID)

	resp, err := http.Post(ts.URL+"/runs?nocache=1", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /runs?nocache=1: status %d", resp.StatusCode)
	}
	if st.Memoized {
		t.Fatal("nocache launch served from the memo store")
	}
	final := waitDone(t, ts, st.ID)
	if final.State != StateDone || final.Memoized {
		t.Fatalf("nocache run: state %s memoized %v", final.State, final.Memoized)
	}
	c := reg.Counters()
	if c.MemoHits != 0 || c.MemoMisses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 0/2", c.MemoHits, c.MemoMisses)
	}
}

// TestMemoNeverServesCanceledOrFailed: only fault-free done runs enter
// the store. A canceled run of a spec must not answer later launches of
// the same spec; once a real completion lands, later launches hit.
func TestMemoNeverServesCanceledOrFailed(t *testing.T) {
	// One execution slot, held by a stalled blocker, so the target spec
	// sits in the queue where cancellation is immediate and deterministic
	// (no timing races).
	ts, reg := newFaultServer(t, Config{MemoEntries: 8, MaxRunning: 1}, stall)
	blocker := launch(t, ts, stallSpec(""))
	spec := `{"workload":"mst","config":"CPP","functional":true,"scale":3}`

	first := launch(t, ts, spec)
	cancelRun := func(id int) {
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/runs/%d", ts.URL, id), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	cancelRun(first.ID)
	firstFinal := waitDone(t, ts, first.ID)
	if firstFinal.State != StateCanceled {
		t.Fatalf("queued run ended %s, want canceled", firstFinal.State)
	}
	// Release the slot: the stall ends on context cancellation.
	cancelRun(blocker.ID)
	waitDone(t, ts, blocker.ID)

	second := launch(t, ts, spec)
	if second.Memoized {
		t.Fatal("memo served a canceled run's spec")
	}
	secondFinal := waitDone(t, ts, second.ID)
	if secondFinal.State != StateDone {
		t.Fatalf("second run: %s (%s)", secondFinal.State, secondFinal.Error)
	}

	third := launch(t, ts, spec)
	if !third.Memoized {
		t.Fatal("real completion did not enter the memo store")
	}
	// Admitted: blocker, canceled first, real second, memoized third —
	// 1 hit + 3 misses.
	c := reg.Counters()
	if c.MemoHits != 1 || c.MemoMisses != 3 {
		t.Fatalf("hits/misses = %d/%d, want 1/3", c.MemoHits, c.MemoMisses)
	}
}

// TestMemoFailedRunNotStored: a failed run (per-run deadline exceeded)
// never memoizes; re-submitting the same spec executes again.
func TestMemoFailedRunNotStored(t *testing.T) {
	ts, reg := newTestServerWith(t, Config{MemoEntries: 8})
	spec := `{"workload":"mst","config":"CPP","functional":true,"scale":64,"timeout_sec":1e-9}`

	first := launch(t, ts, spec)
	firstFinal := waitDone(t, ts, first.ID)
	if firstFinal.State != StateFailed {
		t.Skipf("run ended %s, not failed; deadline too generous on this box", firstFinal.State)
	}
	second := launch(t, ts, spec)
	if second.Memoized {
		t.Fatal("memo served a failed run's spec")
	}
	waitDone(t, ts, second.ID)
	c := reg.Counters()
	if c.MemoHits != 0 {
		t.Fatalf("hits = %d, want 0 (nothing servable was ever stored)", c.MemoHits)
	}
}

// TestMemoWarmStartFromLedger: replayed ledger records seed index-only
// entries (digest-checkable, not servable); the first post-boot execution
// promotes the entry to full, after which identical specs hit. Drift
// stays zero because the simulator is deterministic.
func TestMemoWarmStartFromLedger(t *testing.T) {
	// First life: execute once, capture the ledger records.
	tsA, regA := newTestServerWith(t, Config{MemoEntries: 8})
	spec := `{"workload":"mst","config":"CPP","functional":true,"scale":1}`
	a := launch(t, tsA, spec)
	waitDone(t, tsA, a.ID)
	recs := regA.FleetRecords()
	if len(recs) != 1 || recs[0].ResultDigest == "" || recs[0].SpecHash == "" {
		t.Fatalf("unexpected first-life records: %+v", recs)
	}

	// Second life: seed from the replayed records.
	tsB, regB := newTestServerWith(t, Config{MemoEntries: 8})
	regB.SeedFleet(recs)
	c := regB.Counters()
	if c.MemoEntries != 1 || c.MemoFullEntries != 0 {
		t.Fatalf("after seed: entries=%d full=%d, want 1/0 (index-only)", c.MemoEntries, c.MemoFullEntries)
	}

	// Index-only entries cannot serve: the first launch executes.
	b1 := launch(t, tsB, spec)
	if b1.Memoized {
		t.Fatal("index-only entry served a hit")
	}
	b1Final := waitDone(t, tsB, b1.ID)
	if b1Final.State != StateDone {
		t.Fatalf("b1: %s (%s)", b1Final.State, b1Final.Error)
	}

	// The execution promoted the entry; drift must be zero (determinism)
	// and the next launch hits.
	c = regB.Counters()
	if c.MemoDigestDrift != 0 {
		t.Fatal("digest drift against the ledgered record: determinism violation")
	}
	if c.MemoFullEntries != 1 {
		t.Fatalf("full entries = %d, want 1 after promotion", c.MemoFullEntries)
	}
	b2 := launch(t, tsB, spec)
	if !b2.Memoized {
		t.Fatal("promoted entry did not serve a hit")
	}
	if c = regB.Counters(); c.MemoHits != 1 || c.MemoMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", c.MemoHits, c.MemoMisses)
	}
}

// TestMemoStoreLRUBound: the store honours its entry bound, evicting the
// least recently used spec hash and counting the eviction.
func TestMemoStoreLRUBound(t *testing.T) {
	m := newMemoStore(2)
	for i := 0; i < 3; i++ {
		m.store(&memoEntry{specHash: fmt.Sprintf("h%d", i), digest: "d", full: true})
	}
	st := m.stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("entries=%d evictions=%d, want 2/1", st.Entries, st.Evictions)
	}
	if m.lookup("h0") != nil {
		t.Fatal("oldest entry survived the LRU bound")
	}
	if m.lookup("h2") == nil || m.lookup("h1") == nil {
		t.Fatal("recent entries were evicted")
	}
	// h1 was just looked up (most recent); storing a fourth evicts h2.
	m.store(&memoEntry{specHash: "h3", digest: "d", full: true})
	if m.lookup("h1") == nil {
		t.Fatal("recency bump ignored: h1 evicted despite being MRU")
	}
	if m.lookup("h2") != nil {
		t.Fatal("h2 survived; LRU order not honoured")
	}
}

// TestMemoStoreDriftDetection: a stored entry whose digest disagrees with
// the existing one for the same hash counts drift and the new digest wins.
func TestMemoStoreDriftDetection(t *testing.T) {
	m := newMemoStore(4)
	m.store(&memoEntry{specHash: "h", digest: "d1", full: true})
	if drift := m.store(&memoEntry{specHash: "h", digest: "d2", full: true}); !drift {
		t.Fatal("digest change not flagged as drift")
	}
	if st := m.stats(); st.Drift != 1 {
		t.Fatalf("drift = %d, want 1", st.Drift)
	}
	if e := m.lookup("h"); e == nil || e.digest != "d2" {
		t.Fatal("latest execution's digest did not win")
	}
}

// TestMemoizedRunSpanInvariants: a memoized run's spans are all zero-width
// at the creation instant, so the queue+execute == run reconciliation
// holds trivially and trace tooling sees a consistent (if instantaneous)
// lifecycle.
func TestMemoizedRunSpanInvariants(t *testing.T) {
	ts, reg := newTestServerWith(t, Config{MemoEntries: 8})
	spec := `{"workload":"mst","config":"CPP","functional":true,"scale":1}`
	first := launch(t, ts, spec)
	waitDone(t, ts, first.ID)
	second := launch(t, ts, spec)
	if !second.Memoized {
		t.Fatal("second launch not memoized")
	}
	run, _ := reg.Get(second.ID)
	var total time.Duration
	for _, sp := range run.tracer.Snapshot() {
		if sp.End.IsZero() {
			t.Fatalf("span %q left open on a born-terminal run", sp.Name)
		}
		total += sp.Duration()
	}
	if total != 0 {
		t.Fatalf("memoized run spans sum to %v, want 0 (all zero-width)", total)
	}
}
