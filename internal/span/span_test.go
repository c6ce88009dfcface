package span

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixed instants so exporter output is byte-stable.
var (
	t0 = time.Unix(1700000000, 0).UTC()
	t1 = t0.Add(10 * time.Millisecond)
	t2 = t0.Add(25 * time.Millisecond)
	t3 = t0.Add(40 * time.Millisecond)
)

func buildFixedTrace(t *testing.T) *Tracer {
	t.Helper()
	tr := NewWithID("00112233445566778899aabbccddeeff", 0)
	root := tr.StartAt("run", nil, t0, String("run_id", "r1"))
	q := root.StartChildAt("queue", t0)
	q.EndAt(t1)
	ex := root.StartChildAt("execute", t1, Int("worker", 2))
	ev := ex.StartChildAt("sim.run", t1)
	ev.EventAt("chaos.fired", t2, String("what", "stall"), Int("ordinal", 3))
	ev.EndAt(t2)
	ex.EndAt(t3)
	root.EndAt(t3)
	return tr
}

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	if got := tr.TraceID(); got != "" {
		t.Fatalf("nil TraceID = %q", got)
	}
	s := tr.Start("x", nil, String("k", "v"))
	if s != nil {
		t.Fatalf("nil tracer Start returned non-nil span")
	}
	// Every span method must be a no-op on nil.
	s.End()
	s.EndAt(t1)
	s.SetAttrs(Int("n", 1))
	s.Event("e")
	s.EventAt("e", t1)
	if c := s.StartChild("child"); c != nil {
		t.Fatalf("nil span StartChild returned non-nil")
	}
	if got := s.ID(); got != 0 {
		t.Fatalf("nil span ID = %v", got)
	}
	if s.Tracer() != nil {
		t.Fatalf("nil span Tracer non-nil")
	}
	tr.SetOnEnd(func(string, time.Duration) { t.Fatal("hook fired on nil tracer") })
	if tr.Dropped() != 0 || tr.Len() != 0 {
		t.Fatalf("nil tracer counters non-zero")
	}
	if snap := tr.Snapshot(); snap != nil {
		t.Fatalf("nil tracer Snapshot = %v", snap)
	}
	if got := tr.Tree(); !bytes.Contains(got, []byte(`"trace_id": ""`)) {
		t.Fatalf("nil Tree = %s", got)
	}
	if got := tr.Chrome(); !bytes.Contains(got, []byte(`"traceEvents": []`)) {
		t.Fatalf("nil Chrome = %s", got)
	}
}

func TestSnapshotStructureAndNesting(t *testing.T) {
	tr := buildFixedTrace(t)
	snap := tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("got %d spans, want 4", len(snap))
	}
	byName := map[string]SpanData{}
	for _, d := range snap {
		byName[d.Name] = d
	}
	root := byName["run"]
	if root.ParentID != 0 {
		t.Fatalf("run parent = %v, want root", root.ParentID)
	}
	for _, name := range []string{"queue", "execute"} {
		if byName[name].ParentID != root.SpanID {
			t.Fatalf("%s parent = %v, want %v", name, byName[name].ParentID, root.SpanID)
		}
	}
	if byName["sim.run"].ParentID != byName["execute"].SpanID {
		t.Fatalf("sim.run parent wrong")
	}
	// Child intervals must sit inside their parents.
	for _, child := range []string{"queue", "execute"} {
		c := byName[child]
		if c.Start.Before(root.Start) || c.End.After(root.End) {
			t.Fatalf("%s [%v,%v] escapes parent [%v,%v]", child, c.Start, c.End, root.Start, root.End)
		}
	}
	// queue + execute tile the root exactly.
	if got := byName["queue"].Duration() + byName["execute"].Duration(); got != root.Duration() {
		t.Fatalf("queue+execute = %v, root = %v", got, root.Duration())
	}
	ev := byName["sim.run"].Events
	if len(ev) != 1 || ev[0].Name != "chaos.fired" || !ev[0].Time.Equal(t2) {
		t.Fatalf("sim.run events = %+v", ev)
	}
}

func TestOnEndHook(t *testing.T) {
	tr := New(0)
	var names []string
	var durs []time.Duration
	tr.SetOnEnd(func(name string, d time.Duration) { names = append(names, name); durs = append(durs, d) })
	s := tr.StartAt("stage", nil, t0)
	s.EndAt(t1)
	s.EndAt(t2) // idempotent: second End must not re-fire
	if len(names) != 1 || names[0] != "stage" {
		t.Fatalf("hook names = %v", names)
	}
	if want := t1.Sub(t0); durs[0] != want {
		t.Fatalf("hook duration = %v, want %v", durs[0], want)
	}
	tr.SetOnEnd(nil)
	tr.StartAt("quiet", nil, t0).EndAt(t1)
	if len(names) != 1 {
		t.Fatalf("hook fired after removal")
	}
}

func TestSpanCapDropsAndCounts(t *testing.T) {
	tr := NewWithID("cap", 2)
	a := tr.StartAt("a", nil, t0)
	b := tr.StartAt("b", nil, t0)
	c := tr.StartAt("c", nil, t0)
	if a == nil || b == nil {
		t.Fatalf("spans under cap dropped")
	}
	if c != nil {
		t.Fatalf("span over cap retained")
	}
	if tr.Len() != 2 || tr.Dropped() != 1 {
		t.Fatalf("Len=%d Dropped=%d, want 2/1", tr.Len(), tr.Dropped())
	}
	// The dropped span is nil, and nil composes: children of it vanish too.
	if c.StartChild("orphan") != nil {
		t.Fatalf("child of dropped span retained")
	}
}

func TestEventCapDropsAndCounts(t *testing.T) {
	tr := New(0)
	s := tr.StartAt("busy", nil, t0)
	for i := 0; i < DefaultMaxEvents+5; i++ {
		s.EventAt("e", t1)
	}
	d := tr.Snapshot()[0]
	if len(d.Events) != DefaultMaxEvents {
		t.Fatalf("kept %d events, want %d", len(d.Events), DefaultMaxEvents)
	}
	if d.DroppedEvents != 5 {
		t.Fatalf("dropped %d events, want 5", d.DroppedEvents)
	}
}

func TestTreeExportStable(t *testing.T) {
	tr := buildFixedTrace(t)
	got := tr.Tree()
	// Byte-stability: two exports of the same tracer are identical.
	if !bytes.Equal(got, tr.Tree()) {
		t.Fatalf("Tree export not deterministic")
	}
	var tree struct {
		TraceID      string `json:"trace_id"`
		DroppedSpans int64  `json:"dropped_spans"`
		Spans        []struct {
			Name       string `json:"name"`
			DurationNS int64  `json:"duration_ns"`
			Children   []struct {
				Name     string `json:"name"`
				Children []struct {
					Name   string `json:"name"`
					Events []struct {
						Name string `json:"name"`
					} `json:"events"`
				} `json:"children"`
			} `json:"children"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(got, &tree); err != nil {
		t.Fatalf("Tree not valid JSON: %v\n%s", err, got)
	}
	if tree.TraceID != "00112233445566778899aabbccddeeff" {
		t.Fatalf("trace_id = %q", tree.TraceID)
	}
	if len(tree.Spans) != 1 || tree.Spans[0].Name != "run" {
		t.Fatalf("roots = %+v", tree.Spans)
	}
	if got, want := tree.Spans[0].DurationNS, t3.Sub(t0).Nanoseconds(); got != want {
		t.Fatalf("run duration_ns = %d, want %d", got, want)
	}
	kids := tree.Spans[0].Children
	if len(kids) != 2 || kids[0].Name != "queue" || kids[1].Name != "execute" {
		t.Fatalf("children = %+v", kids)
	}
	grand := kids[1].Children
	if len(grand) != 1 || grand[0].Name != "sim.run" {
		t.Fatalf("grandchildren = %+v", grand)
	}
	if len(grand[0].Events) != 1 || grand[0].Events[0].Name != "chaos.fired" {
		t.Fatalf("events = %+v", grand[0].Events)
	}
}

// TestChromeExportStable pins the exact Chrome trace_event bytes of the
// fixed trace (run with -update to rewrite the golden) and checks the
// span-to-event mapping.
func TestChromeExportStable(t *testing.T) {
	tr := buildFixedTrace(t)
	got := tr.Chrome()
	if !bytes.Equal(got, tr.Chrome()) {
		t.Fatalf("Chrome export not deterministic")
	}
	goldenPath := filepath.Join("testdata", "chrome.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Chrome export differs from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		TraceID string `json:"traceId"`
	}
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatalf("Chrome not valid JSON: %v\n%s", err, got)
	}
	if out.TraceID != "00112233445566778899aabbccddeeff" {
		t.Fatalf("traceId = %q", out.TraceID)
	}
	// 4 spans + 1 instant event.
	if len(out.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5:\n%s", len(out.TraceEvents), got)
	}
	byName := map[string]int{}
	for i, e := range out.TraceEvents {
		byName[e.Name+e.Ph] = i
	}
	run := out.TraceEvents[byName["runX"]]
	if run.TS != 0 || run.Dur != t3.Sub(t0).Microseconds() || run.TID != 1 {
		t.Fatalf("run event = %+v", run)
	}
	sim := out.TraceEvents[byName["sim.runX"]]
	if sim.TID != 3 { // run=1, execute=2, sim.run=3
		t.Fatalf("sim.run tid = %d, want 3", sim.TID)
	}
	inst := out.TraceEvents[byName["chaos.firedi"]]
	if inst.TS != t2.Sub(t0).Microseconds() || inst.Args["span"] != "sim.run" {
		t.Fatalf("instant event = %+v", inst)
	}
}

func TestOpenSpanExports(t *testing.T) {
	tr := NewWithID("open", 0)
	tr.StartAt("pending", nil, t0)
	var tree struct {
		Spans []struct {
			EndUnixNano int64 `json:"end_unix_nano"`
			DurationNS  int64 `json:"duration_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(tr.Tree(), &tree); err != nil {
		t.Fatal(err)
	}
	if tree.Spans[0].EndUnixNano != 0 || tree.Spans[0].DurationNS != 0 {
		t.Fatalf("open span has end: %+v", tree.Spans[0])
	}
	if !bytes.Contains(tr.Chrome(), []byte(`"ph": "B"`)) {
		t.Fatalf("open span not a B event:\n%s", tr.Chrome())
	}
}

func TestBoolAttrAndIDString(t *testing.T) {
	if a := Bool("hit", true); a.Str != "true" || a.IsInt {
		t.Fatalf("Bool(true) = %+v", a)
	}
	if a := Bool("hit", false); a.Str != "false" {
		t.Fatalf("Bool(false) = %+v", a)
	}
	if got := ID(0x2a).String(); got != "000000000000002a" {
		t.Fatalf("ID string = %q", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	tr := New(64)
	root := tr.StartAt("root", nil, t0)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				s := root.StartChild("child")
				s.Event("tick")
				s.SetAttrs(Int("i", int64(i)))
				s.End()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if tr.Len() != 64 {
		t.Fatalf("Len = %d, want cap 64", tr.Len())
	}
	if tr.Dropped() != 8*50+1-64 {
		t.Fatalf("Dropped = %d, want %d", tr.Dropped(), 8*50+1-64)
	}
	// Exports must not race or corrupt.
	tr.Tree()
	tr.Chrome()
}
