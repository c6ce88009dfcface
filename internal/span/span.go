// Package span is the repo's hand-rolled run-lifecycle tracer: a
// lightweight, allocation-bounded span collector that makes the wall-clock
// anatomy of a simulation run (admission, queue wait, worker dispatch,
// trace decode, simulation stages, SSE streaming) visible as one timeline.
//
// The design follows the conventions of internal/obs: everything is
// reached through nil-able receivers, so instrumented code holds plain
// *Tracer / *Span fields and calls hooks unconditionally — with tracing
// off (nil tracer) every hook is a single predictable branch, no locks, no
// allocation, provably inert (test-enforced byte-identity of simulation
// outputs with and without an attached tracer).
//
// A Tracer owns one trace: a bounded set of spans sharing a trace ID.
// Each span has a name, a parent, wall-clock start/end instants, typed
// attributes and point-in-time events. The bounds are hard: beyond
// MaxSpans the tracer drops new spans (counting them), and beyond
// MaxEvents per span it drops new events, so a runaway instrumentation
// site can never grow memory without limit.
//
// Two exporters ship with the tracer (export.go). Tree renders the
// parent-child structure as indented JSON for the observatory's
// GET /runs/{id}/trace endpoint. Chrome renders the Chrome trace_event
// format (loadable in chrome://tracing or Perfetto); its encoder,
// EncodeChrome, is the repo's only one, and internal/obs's flight
// recorder renders through it too.
package span

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// Bounds for the allocation caps. DefaultMaxSpans is sized for a full
// figure-sweep battery (hundreds of jobs), not just a single run.
const (
	DefaultMaxSpans  = 4096
	DefaultMaxEvents = 64
)

// ID is a span identifier, unique within one tracer.
type ID uint64

// String renders the ID in the fixed-width hex form used by exporters.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// Attr is one typed key-value attribute on a span or event. Exactly one
// of Str/Int carries the value (IsInt distinguishes them), keeping the
// struct flat and allocation-free to construct.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// String builds a string-valued attribute.
func String(key, value string) Attr { return Attr{Key: key, Str: value} }

// Int builds an integer-valued attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, Int: value, IsInt: true} }

// Bool builds a boolean attribute (rendered as the strings "true"/"false"
// so exporters stay type-simple).
func Bool(key string, value bool) Attr {
	if value {
		return String(key, "true")
	}
	return String(key, "false")
}

// Event is one point-in-time annotation on a span (a recovered panic, a
// decode-cache hit, an SSE gap).
type Event struct {
	Time  time.Time
	Name  string
	Attrs []Attr
}

// Span is one timed operation. All fields are guarded by the owning
// tracer's mutex; mutate only through the methods. A nil *Span is valid
// and turns every method into a no-op, so callers thread spans through
// optional plumbing without nil checks.
type Span struct {
	tr     *Tracer
	id     ID
	parent ID // 0 = root
	name   string
	start  time.Time
	end    time.Time // zero while open
	attrs  []Attr
	events []Event

	droppedEvents int64
}

// Tracer owns one trace: a bounded span set sharing a trace ID. Safe for
// concurrent use from any number of goroutines; a nil *Tracer disables
// everything.
type Tracer struct {
	mu       sync.Mutex
	traceID  string
	spans    []*Span
	byID     map[ID]*Span
	nextID   ID
	maxSpans int
	dropped  int64

	// onEnd, when set, observes every span end (name, exact duration).
	// The observatory feeds its per-stage Prometheus histograms from it.
	onEnd func(name string, d time.Duration)
}

// New builds a tracer with a random 128-bit trace ID. maxSpans <= 0 means
// DefaultMaxSpans.
func New(maxSpans int) *Tracer {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// time-derived ID rather than plumbing an error through every
		// instrumentation site.
		binary.BigEndian.PutUint64(b[:8], uint64(time.Now().UnixNano()))
	}
	return NewWithID(hex.EncodeToString(b[:]), maxSpans)
}

// NewWithID builds a tracer with an explicit trace ID (tests pin it for
// byte-stable exporter output).
func NewWithID(traceID string, maxSpans int) *Tracer {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Tracer{
		traceID:  traceID,
		byID:     map[ID]*Span{},
		maxSpans: maxSpans,
	}
}

// TraceID returns the trace identifier ("" on a nil tracer).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// SetOnEnd installs the span-end observer. Pass nil to remove it.
func (t *Tracer) SetOnEnd(fn func(name string, d time.Duration)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.onEnd = fn
	t.mu.Unlock()
}

// Dropped reports how many spans were discarded at the MaxSpans bound.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len reports how many spans the tracer retains.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Start opens a span now. parent may be nil (a root span).
func (t *Tracer) Start(name string, parent *Span, attrs ...Attr) *Span {
	return t.StartAt(name, parent, time.Now(), attrs...)
}

// StartAt opens a span at an explicit instant. The observatory passes the
// same time.Time it stamps on the run's registry state, so span intervals
// reconcile with registry timestamps exactly, not merely approximately.
func (t *Tracer) StartAt(name string, parent *Span, at time.Time, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.maxSpans {
		t.dropped++
		return nil
	}
	t.nextID++
	s := &Span{tr: t, id: t.nextID, name: name, start: at}
	if parent != nil && parent.tr == t {
		s.parent = parent.id
	}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	t.spans = append(t.spans, s)
	t.byID[s.id] = s
	return s
}

// StartChild opens a child span of s on the same tracer. Nil-safe on both
// the span and its tracer.
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tr.Start(name, s, attrs...)
}

// StartChildAt is StartChild at an explicit instant.
func (s *Span) StartChildAt(name string, at time.Time, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tr.StartAt(name, s, at, attrs...)
}

// ID returns the span's identifier (0 on nil).
func (s *Span) ID() ID {
	if s == nil {
		return 0
	}
	return s.id
}

// Tracer returns the owning tracer (nil on a nil span).
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// End closes the span now. Ending an already-ended span is a no-op, so
// defer s.End() composes with explicit EndAt calls on success paths.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt closes the span at an explicit instant and feeds the tracer's
// OnEnd observer.
func (s *Span) EndAt(at time.Time) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	if !s.end.IsZero() {
		t.mu.Unlock()
		return
	}
	s.end = at
	onEnd := t.onEnd
	name, dur := s.name, at.Sub(s.start)
	t.mu.Unlock()
	if onEnd != nil {
		onEnd(name, dur)
	}
}

// SetAttrs appends attributes to the span.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil || len(attrs) == 0 {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.tr.mu.Unlock()
}

// Event records a point-in-time annotation now.
func (s *Span) Event(name string, attrs ...Attr) {
	s.EventAt(name, time.Now(), attrs...)
}

// EventAt records an annotation at an explicit instant. Beyond MaxEvents
// per span, events are dropped and counted.
func (s *Span) EventAt(name string, at time.Time, attrs ...Attr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if len(s.events) >= DefaultMaxEvents {
		s.droppedEvents++
		s.tr.mu.Unlock()
		return
	}
	var a []Attr
	if len(attrs) > 0 {
		a = append(a, attrs...)
	}
	s.events = append(s.events, Event{Time: at, Name: name, Attrs: a})
	s.tr.mu.Unlock()
}

// SpanData is one span's immutable export view (see Tracer.Snapshot).
type SpanData struct {
	SpanID   ID
	ParentID ID // 0 for roots
	Name     string
	Start    time.Time
	End      time.Time // zero while still open
	Attrs    []Attr
	Events   []Event

	DroppedEvents int64
}

// Duration returns the span's length, or the zero duration while open.
func (d SpanData) Duration() time.Duration {
	if d.End.IsZero() {
		return 0
	}
	return d.End.Sub(d.Start)
}

// Snapshot copies the retained spans, in start order (the order they were
// opened). Exporters and tests consume this; the live spans stay private.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, len(t.spans))
	for i, s := range t.spans {
		out[i] = SpanData{
			SpanID:        s.id,
			ParentID:      s.parent,
			Name:          s.name,
			Start:         s.start,
			End:           s.end,
			Attrs:         append([]Attr(nil), s.attrs...),
			Events:        append([]Event(nil), s.events...),
			DroppedEvents: s.droppedEvents,
		}
	}
	return out
}
