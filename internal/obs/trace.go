package obs

import (
	"fmt"

	"cppcache/internal/mach"
	"cppcache/internal/span"
)

// EventKind enumerates the traced simulator events.
type EventKind uint8

// Event kinds. Cache-structure events carry the line's base address;
// word-grain events (compression transitions) carry the word address.
const (
	EvFillL1         EventKind = iota // L1 line installed (aux: words present)
	EvFillL2                          // L2 line installed (aux: words present)
	EvEvictL1                         // L1 line evicted (aux: 1 if dirty)
	EvEvictL2                         // L2 line evicted (aux: 1 if dirty)
	EvAffPrefetch                     // affiliated words installed (aux: word count)
	EvAffHitL1                        // demand hit in an L1 affiliated line
	EvAffHitL2                        // demand hit served from L2 affiliated storage
	EvPromote                         // affiliated line promoted to its primary place
	EvCompTransition                  // compressible -> incompressible write evicted an affiliated word
	EvVictimPlace                     // evicted line salvaged into its affiliated place
	EvPfIssue                         // BCP prefetch issued into a buffer (aux: level)
	EvPfBufHit                        // BCP demand hit in a prefetch buffer (aux: level)

	numEventKinds
)

var eventNames = [numEventKinds]string{
	EvFillL1:         "fill-l1",
	EvFillL2:         "fill-l2",
	EvEvictL1:        "evict-l1",
	EvEvictL2:        "evict-l2",
	EvAffPrefetch:    "aff-prefetch",
	EvAffHitL1:       "aff-hit-l1",
	EvAffHitL2:       "aff-hit-l2",
	EvPromote:        "promote",
	EvCompTransition: "comp-transition",
	EvVictimPlace:    "victim-place",
	EvPfIssue:        "pf-issue",
	EvPfBufHit:       "pf-buf-hit",
}

// eventTIDs groups kinds into Chrome trace threads: 1 = L1, 2 = L2,
// 3 = prefetch machinery.
var eventTIDs = [numEventKinds]int{
	EvFillL1:         1,
	EvFillL2:         2,
	EvEvictL1:        1,
	EvEvictL2:        2,
	EvAffPrefetch:    3,
	EvAffHitL1:       1,
	EvAffHitL2:       2,
	EvPromote:        1,
	EvCompTransition: 1,
	EvVictimPlace:    3,
	EvPfIssue:        3,
	EvPfBufHit:       3,
}

// String returns the stable event name used in trace output.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("event-%d", int(k))
}

// Event is one traced simulator event.
type Event struct {
	Cycle int64
	Kind  EventKind
	Addr  mach.Addr
	Aux   int64
}

// Event pushes one event into the trace ring. The current simulated time
// (set by Tick/OpTick) is stamped on it. No-op without a ring.
func (r *Recorder) Event(kind EventKind, addr mach.Addr, aux int64) {
	if r == nil || r.ring == nil {
		return
	}
	r.ring.push(Event{Cycle: r.now, Kind: kind, Addr: addr, Aux: aux})
}

// TraceEnabled reports whether an event ring is attached; hook sites with
// non-trivial argument preparation can use it to skip that work.
func (r *Recorder) TraceEnabled() bool { return r != nil && r.ring != nil }

// TraceEvents returns the retained events, oldest first.
func (r *Recorder) TraceEvents() []Event {
	if r == nil || r.ring == nil {
		return nil
	}
	return r.ring.events()
}

// TraceDropped returns how many events were dropped (overwritten) because
// the ring was full.
func (r *Recorder) TraceDropped() int64 {
	if r == nil || r.ring == nil {
		return 0
	}
	return r.ring.dropped
}

// ring is a fixed-capacity event buffer that overwrites its oldest entry
// when full, counting every overwrite as a drop: the trace keeps the most
// recent window of activity, like a flight recorder.
type ring struct {
	buf     []Event
	head    int // index of the oldest event
	n       int
	dropped int64
}

func newRing(capacity int) *ring { return &ring{buf: make([]Event, capacity)} }

func (g *ring) push(e Event) {
	if g.n < len(g.buf) {
		g.buf[(g.head+g.n)%len(g.buf)] = e
		g.n++
		return
	}
	g.buf[g.head] = e
	g.head = (g.head + 1) % len(g.buf)
	g.dropped++
}

func (g *ring) events() []Event {
	out := make([]Event, g.n)
	for i := 0; i < g.n; i++ {
		out[i] = g.buf[(g.head+i)%len(g.buf)]
	}
	return out
}

// threadNames labels the Chrome trace threads.
var threadNames = [4]string{1: "L1", 2: "L2", 3: "prefetch"}

// ChromeTrace renders the retained events as Chrome trace_event JSON
// through span's encoder, loadable in chrome://tracing or Perfetto.
// Events are instants ("ph":"i") with one simulated cycle mapped to one
// microsecond.
func (r *Recorder) ChromeTrace() []byte {
	if r == nil || r.ring == nil {
		return span.EncodeChrome(nil, 0, "")
	}
	evs := make([]span.ChromeEvent, 0, 3+r.ring.n)
	for tid := 1; tid <= 3; tid++ {
		evs = append(evs, span.ChromeEvent{Name: "thread_name", Ph: "M", TID: tid,
			Args: map[string]any{"name": threadNames[tid]}})
	}
	for _, e := range r.ring.events() {
		args := map[string]any{"addr": fmt.Sprintf("%#08x", e.Addr)}
		if e.Aux != 0 {
			args["aux"] = e.Aux
		}
		evs = append(evs, span.ChromeEvent{Name: e.Kind.String(), Ph: "i", TS: e.Cycle,
			TID: eventTIDs[e.Kind], Scope: "t", Args: args})
	}
	return span.EncodeChrome(evs, r.ring.dropped, "")
}
