package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SchemaVersion is stamped on every record so future readers can evolve
// the shape without guessing.
const SchemaVersion = 1

// framePrefix marks a ledger line. Each line is
//
//	cppl1 <len> <crc32c-hex8> <json>\n
//
// where len is the byte length of the JSON payload and the checksum is
// CRC-32C (Castagnoli) over those bytes. The framing makes torn writes
// and bit rot detectable per record: replay validates both fields before
// trusting a line.
const framePrefix = "cppl1"

// maxLine bounds a single framed record during replay (a run record is a
// few hundred bytes; 1 MiB leaves room for generous error strings while
// still refusing pathological input).
const maxLine = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one terminal run, as persisted to the ledger. Counter fields
// are the run's registry totals (sums of its interval snapshots), so
// rollups built from records conserve against live registry counters
// exactly.
type Record struct {
	Schema  int    `json:"schema"`
	RunID   int    `json:"run_id"`
	TraceID string `json:"trace_id,omitempty"`
	// SpecHash content-addresses the normalized RunSpec (see SpecHash);
	// ResultDigest content-addresses the final Result ("" for runs that
	// produced none: failed or canceled).
	SpecHash     string `json:"spec_hash"`
	ResultDigest string `json:"result_digest,omitempty"`

	Workload   string `json:"workload"`
	Config     string `json:"config"`
	Compressor string `json:"compressor"`
	Scale      int    `json:"scale,omitempty"`
	Functional bool   `json:"functional,omitempty"`

	State string `json:"state"`
	Panic bool   `json:"panic,omitempty"`
	Error string `json:"error,omitempty"`

	// Memoized marks a run served from the memo store instead of being
	// executed; MemoSource is the run ID whose result it replayed. Memoized
	// records are never themselves memo sources (the chain always points at
	// a real execution).
	Memoized   bool `json:"memoized,omitempty"`
	MemoSource int  `json:"memo_source,omitempty"`

	Created    time.Time `json:"created"`
	Finished   time.Time `json:"finished"`
	GoMaxProcs int       `json:"gomaxprocs,omitempty"`

	// StageSeconds maps lifecycle stage name (run, queue, execute,
	// workload.build, sim.*) to the run's summed span duration.
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`

	// Registry totals at the terminal transition.
	Intervals    int     `json:"intervals,omitempty"`
	Instructions int64   `json:"instructions,omitempty"`
	L1Misses     int64   `json:"l1_misses,omitempty"`
	TrafficWords float64 `json:"traffic_words,omitempty"`
}

// Frame renders one record as a framed ledger line (including the
// trailing newline).
func Frame(rec Record) ([]byte, error) {
	if rec.Schema == 0 {
		rec.Schema = SchemaVersion
	}
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line := fmt.Sprintf("%s %d %08x %s\n", framePrefix, len(body),
		crc32.Checksum(body, castagnoli), body)
	return []byte(line), nil
}

// parseLine validates one framed line and returns its record.
func parseLine(line string) (Record, error) {
	var rec Record
	parts := strings.SplitN(line, " ", 4)
	if len(parts) != 4 || parts[0] != framePrefix {
		return rec, fmt.Errorf("not a %s frame", framePrefix)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 0 || n > maxLine {
		return rec, fmt.Errorf("bad length %q", parts[1])
	}
	want, err := strconv.ParseUint(parts[2], 16, 32)
	if err != nil {
		return rec, fmt.Errorf("bad checksum %q", parts[2])
	}
	body := parts[3]
	if len(body) != n {
		return rec, fmt.Errorf("length mismatch: frame says %d, payload is %d", n, len(body))
	}
	if got := crc32.Checksum([]byte(body), castagnoli); got != uint32(want) {
		return rec, fmt.Errorf("checksum mismatch: frame says %08x, payload is %08x", want, got)
	}
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		return rec, fmt.Errorf("bad record JSON: %v", err)
	}
	return rec, nil
}

// Writer appends records to a ledger file. Every Append is flushed and
// fsync'd before it returns, so a record acknowledged to the caller
// survives a crash of both process and OS; a record torn by a crash
// mid-write fails its frame validation on replay and is skipped without
// damaging its predecessors. Safe for concurrent use.
type Writer struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	appended int64
}

// OpenWriter opens (creating if needed) the ledger at path for appending.
func OpenWriter(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, path: path}, nil
}

// Path returns the ledger file path.
func (w *Writer) Path() string {
	if w == nil {
		return ""
	}
	return w.path
}

// Appended reports how many records this writer has durably appended.
func (w *Writer) Appended() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// Append frames, writes and fsyncs one record. A nil writer discards the
// record (the ledger-off path), costing one branch.
func (w *Writer) Append(rec Record) error {
	if w == nil {
		return nil
	}
	line, err := Frame(rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("ledger append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("ledger fsync: %w", err)
	}
	w.appended++
	return nil
}

// Close closes the underlying file.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// ReplayStats summarises one replay pass.
type ReplayStats struct {
	// Records is how many valid records were recovered.
	Records int
	// Skipped counts lines that failed frame validation (torn tail from a
	// crash mid-append, bit rot, foreign garbage). Skipping is per line:
	// records before and after a damaged one are unaffected.
	Skipped int
}

// Replay reads every valid record from the ledger at path, in append
// order. A missing file is an empty ledger, not an error. Damaged lines
// are skipped and counted in stats — replay never fails because of a
// corrupt record, only on I/O errors.
func Replay(path string) ([]Record, ReplayStats, error) {
	var stats ReplayStats
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, stats, nil
	}
	if err != nil {
		return nil, stats, err
	}
	defer f.Close()

	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), maxLine+256)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		rec, err := parseLine(line)
		if err != nil {
			stats.Skipped++
			continue
		}
		recs = append(recs, rec)
		stats.Records++
	}
	if err := sc.Err(); err != nil {
		// An over-long line means an unframed blob was appended by
		// something else; everything recovered so far is still good.
		if strings.Contains(err.Error(), "token too long") {
			stats.Skipped++
			return recs, stats, nil
		}
		return recs, stats, err
	}
	return recs, stats, nil
}
