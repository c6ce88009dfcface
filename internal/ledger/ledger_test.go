package ledger

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func testRecord(id int, state string) Record {
	return Record{
		Schema:       SchemaVersion,
		RunID:        id,
		TraceID:      strings.Repeat("ab", 16),
		SpecHash:     strings.Repeat("cd", 32),
		Workload:     "olden.mst",
		Config:       "CPP",
		Compressor:   "paper",
		State:        state,
		Created:      time.Unix(1700000000, 0).UTC(),
		Finished:     time.Unix(1700000001, 500).UTC(),
		GoMaxProcs:   4,
		StageSeconds: map[string]float64{"run": 1.5, "queue": 0.5, "execute": 1.0},
		Intervals:    7,
		Instructions: 1000 + int64(id),
		L1Misses:     10 * int64(id),
		TrafficWords: 2.5 * float64(id),
	}
}

func TestAppendReplayRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ndjson")
	w, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{testRecord(1, "done"), testRecord(2, "failed"), testRecord(3, "canceled")}
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if w.Appended() != 3 {
		t.Errorf("Appended = %d, want 3", w.Appended())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, stats, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 0 || stats.Records != 3 {
		t.Errorf("stats = %+v, want 3 records 0 skipped", stats)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// faultFlagLedger holds two framed records as cppserved wrote them while a
// run spec could request fault injection: each carries that request's
// flag, a key Record no longer has. Run 2 panicked; run 1 completed.
const faultFlagLedger = `cppl1 603 fbbf9e47 {"schema":1,"run_id":2,"trace_id":"f59107120bdc3c821219077b2a5c0902","spec_hash":"b91d48664f9fb2064597d571cab653f565602e8170ef6f0db558f0b54cb9c694","workload":"olden.treeadd","config":"CPP","compressor":"paper","scale":1,"functional":true,"state":"failed","chaos":true,"panic":true,"error":"panic: chaos: injected panic at sim.op (hit 100, seed 0)","created":"2026-10-19T09:24:06.39366815Z","finished":"2026-10-19T09:24:06.415461903Z","gomaxprocs":2,"stage_seconds":{"admission":0.00009537,"execute":0.021773143,"queue":0.000020594,"run":0.021793737,"sim.build":0.00014141,"workload.build":0.014571249}}
cppl1 707 d4b7f057 {"schema":1,"run_id":1,"trace_id":"9cfdb3eb767157aaeae412a6967f222c","spec_hash":"0d72a45ec8e467ac6cb7cd621ac748132877597fa96b702bc431f6ed3dd8db1f","result_digest":"e5ecb1b731bfe1785419d33d8056095a49fed06c29d16a996c3a2c1ea7253591","workload":"olden.treeadd","config":"CPP","compressor":"paper","scale":1,"functional":true,"state":"done","chaos":true,"created":"2026-10-19T09:24:06.381465247Z","finished":"2026-10-19T09:24:06.422987158Z","gomaxprocs":2,"stage_seconds":{"admission":0.000115518,"execute":0.041484091,"queue":0.000037809,"run":0.0415219,"sim.build":0.000070655,"sim.finish":0.000006998,"sim.run":0.01097184,"workload.build":0.03020592},"intervals":17,"l1_misses":6040,"traffic_words":121879.5}
`

// TestReplayIgnoresRetiredKey: a ledger whose records carry the retired
// fault-injection flag still replays whole. The unknown key is ignored, no
// line counts as damaged, and the rollup counts each record in its group.
func TestReplayIgnoresRetiredKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.ledger")
	if err := os.WriteFile(path, []byte(faultFlagLedger), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, stats, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats != (ReplayStats{Records: 2}) {
		t.Fatalf("stats = %+v, want 2 records 0 skipped", stats)
	}
	failed, done := recs[0], recs[1]
	if failed.RunID != 2 || failed.State != "failed" || !failed.Panic ||
		!strings.HasPrefix(failed.Error, "panic: ") {
		t.Errorf("failed record = %+v", failed)
	}
	if done.RunID != 1 || done.State != "done" || done.ResultDigest == "" ||
		done.Intervals != 17 || done.L1Misses != 6040 || done.TrafficWords != 121879.5 {
		t.Errorf("done record = %+v", done)
	}

	ro := NewRollup()
	ro.AddAll(recs)
	agg, err := ro.Aggregate(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.TotalRuns != 2 || len(agg.Groups) != 2 {
		t.Fatalf("aggregate: %d runs in %d groups, want 2 in 2", agg.TotalRuns, len(agg.Groups))
	}
	for _, g := range agg.Groups {
		if g.Workload != "olden.treeadd" || g.Config != "CPP" || g.Compressor != "paper" || g.Runs != 1 {
			t.Errorf("group %+v, want one olden.treeadd/CPP/paper run", g)
		}
		switch g.State {
		case "done":
			if g.Intervals != 17 || g.L1Misses != 6040 || g.TrafficWords != 121879.5 || g.Panics != 0 {
				t.Errorf("done group = %+v", g)
			}
		case "failed":
			if g.Panics != 1 {
				t.Errorf("failed group = %+v", g)
			}
		default:
			t.Errorf("unexpected group state %q", g.State)
		}
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	recs, stats, err := Replay(filepath.Join(t.TempDir(), "nope.ndjson"))
	if err != nil || len(recs) != 0 || stats != (ReplayStats{}) {
		t.Errorf("missing file: recs=%v stats=%+v err=%v, want empty", recs, stats, err)
	}
}

// TestReplayTruncatedTail: a crash mid-append leaves a torn final line.
// Replay must keep every earlier record and skip (and count) the tail.
func TestReplayTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ndjson")
	w, _ := OpenWriter(path)
	for i := 1; i <= 3; i++ {
		if err := w.Append(testRecord(i, "done")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{2, 7, 20, 40} { // various torn-write points
		torn := b[:len(b)-cut]
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, stats, err := Replay(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != 2 || stats.Records != 2 || stats.Skipped != 1 {
			t.Errorf("cut %d: got %d records, stats %+v; want 2 records, 1 skipped",
				cut, len(recs), stats)
		}
		if recs[0].RunID != 1 || recs[1].RunID != 2 {
			t.Errorf("cut %d: wrong surviving records: %+v", cut, recs)
		}
	}
}

// TestReplayCorruptMiddleRecord: bit rot inside the file must cost exactly
// the damaged record, not everything after it.
func TestReplayCorruptMiddleRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ndjson")
	w, _ := OpenWriter(path)
	for i := 1; i <= 3; i++ {
		if err := w.Append(testRecord(i, "done")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	b, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(b), "\n")
	// Flip a payload byte in the middle record: the checksum must catch it.
	mid := []byte(lines[1])
	mid[len(mid)/2] ^= 0x40
	corrupted := lines[0] + string(mid) + lines[2]
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, stats, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || stats.Skipped != 1 {
		t.Fatalf("got %d records, stats %+v; want records 1 and 3, 1 skipped", len(recs), stats)
	}
	if recs[0].RunID != 1 || recs[1].RunID != 3 {
		t.Errorf("wrong survivors: %d, %d", recs[0].RunID, recs[1].RunID)
	}
}

// TestReplayForeignGarbage: unframed lines (someone cat'd a log into the
// ledger) are skipped without harming framed records around them.
func TestReplayForeignGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ndjson")
	w, _ := OpenWriter(path)
	w.Append(testRecord(1, "done"))
	w.Close()

	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("not a ledger line\n\ncppl1 999 zzzzzzzz {}\n")
	f.Close()
	w2, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	w2.Append(testRecord(2, "done"))
	w2.Close()

	recs, stats, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || stats.Skipped != 2 { // blank line is ignored, not counted
		t.Fatalf("got %d records, stats %+v; want 2 records, 2 skipped", len(recs), stats)
	}
	if recs[0].RunID != 1 || recs[1].RunID != 2 {
		t.Errorf("wrong survivors: %+v", recs)
	}
}

func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ndjson")
	w, _ := OpenWriter(path)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 5; i++ {
				if e := w.Append(testRecord(g*100+i, "done")); e != nil {
					err = e
				}
			}
			done <- err
		}(g)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	recs, stats, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 40 || stats.Skipped != 0 {
		t.Errorf("got %d records, %d skipped; want 40 intact", len(recs), stats.Skipped)
	}
}
