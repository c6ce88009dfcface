package span

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// attrMap renders attributes as a flat JSON object. Go's encoder sorts
// map keys, so the output is deterministic.
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		if a.IsInt {
			m[a.Key] = a.Int
		} else {
			m[a.Key] = a.Str
		}
	}
	return m
}

// treeEvent is one event of the Tree rendering.
type treeEvent struct {
	Name     string         `json:"name"`
	UnixNano int64          `json:"unix_nano"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// treeSpan is one node of the Tree rendering. Children nest, so the
// lifecycle reads top-down: run → queue/execute → sim stages.
type treeSpan struct {
	SpanID        string         `json:"span_id"`
	Name          string         `json:"name"`
	StartUnixNano int64          `json:"start_unix_nano"`
	EndUnixNano   int64          `json:"end_unix_nano,omitempty"`
	DurationNS    int64          `json:"duration_ns,omitempty"`
	Attrs         map[string]any `json:"attrs,omitempty"`
	Events        []treeEvent    `json:"events,omitempty"`
	DroppedEvents int64          `json:"dropped_events,omitempty"`
	Children      []*treeSpan    `json:"children,omitempty"`
}

// treeTrace is the Tree envelope.
type treeTrace struct {
	TraceID      string      `json:"trace_id"`
	DroppedSpans int64       `json:"dropped_spans"`
	Spans        []*treeSpan `json:"spans"`
}

// Tree renders the trace as indented JSON with parent-child nesting, the
// shape served by GET /runs/{id}/trace. Spans keep their open order;
// orphans (parent dropped at the span cap) surface as extra roots rather
// than vanishing.
func (t *Tracer) Tree() []byte {
	tr := treeTrace{TraceID: t.TraceID(), Spans: []*treeSpan{}}
	if t != nil {
		t.mu.Lock()
		tr.DroppedSpans = t.dropped
		nodes := make(map[ID]*treeSpan, len(t.spans))
		for _, s := range t.spans {
			n := &treeSpan{
				SpanID:        s.id.String(),
				Name:          s.name,
				StartUnixNano: s.start.UnixNano(),
				Attrs:         attrMap(s.attrs),
				DroppedEvents: s.droppedEvents,
			}
			if !s.end.IsZero() {
				n.EndUnixNano = s.end.UnixNano()
				n.DurationNS = s.end.Sub(s.start).Nanoseconds()
			}
			for _, e := range s.events {
				n.Events = append(n.Events, treeEvent{
					Name: e.Name, UnixNano: e.Time.UnixNano(), Attrs: attrMap(e.Attrs),
				})
			}
			nodes[s.id] = n
		}
		for _, s := range t.spans {
			n := nodes[s.id]
			if p, ok := nodes[s.parent]; ok && s.parent != 0 {
				p.Children = append(p.Children, n)
			} else {
				tr.Spans = append(tr.Spans, n)
			}
		}
		t.mu.Unlock()
	}
	return mustEncode(tr, "  ")
}

// ChromeEvent is one Chrome trace_event entry
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Field order is fixed by the struct and Args renders with sorted keys,
// keeping the output byte-stable for golden tests. Spans, span events and
// internal/obs's flight-recorder instants all render through it.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	ID    string         `json:"id,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the trace_event envelope.
type chromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Dropped         int64         `json:"droppedEventCount"`
	TraceID         string        `json:"traceId,omitempty"`
}

// EncodeChrome renders events as one Chrome trace_event JSON document,
// loadable in chrome://tracing or Perfetto. dropped is the producer's
// count of events lost to its bounds; an empty traceID is omitted.
func EncodeChrome(events []ChromeEvent, dropped int64, traceID string) []byte {
	if events == nil {
		events = []ChromeEvent{}
	}
	return mustEncode(chromeTrace{
		TraceEvents: events, DisplayTimeUnit: "ms", Dropped: dropped, TraceID: traceID,
	}, " ")
}

// Chrome renders the trace in Chrome trace_event JSON. Closed spans become
// complete events ("ph":"X", microsecond timestamps relative to the
// earliest span); open spans become begin events ("ph":"B"); span events
// become instants. Root spans map to tid 1, each nesting level one thread
// lane deeper, so the run lifecycle reads as a flame chart.
func (t *Tracer) Chrome() []byte {
	if t == nil {
		return EncodeChrome(nil, 0, "")
	}
	t.mu.Lock()
	var epoch time.Time
	for _, s := range t.spans {
		if epoch.IsZero() || s.start.Before(epoch) {
			epoch = s.start
		}
	}
	depth := make(map[ID]int, len(t.spans))
	for _, s := range t.spans { // spans slice is in open order: parents precede children
		depth[s.id] = 1
		if d, ok := depth[s.parent]; ok && s.parent != 0 {
			depth[s.id] = d + 1
		}
	}
	us := func(at time.Time) int64 { return at.Sub(epoch).Microseconds() }
	var evs []ChromeEvent
	for _, s := range t.spans {
		ev := ChromeEvent{Name: s.name, Ph: "X", TS: us(s.start), TID: depth[s.id],
			ID: s.id.String(), Args: attrMap(s.attrs)}
		if s.end.IsZero() {
			ev.Ph = "B"
		} else {
			ev.Dur = s.end.Sub(s.start).Microseconds()
		}
		evs = append(evs, ev)
		for _, e := range s.events {
			args := attrMap(e.Attrs)
			if args == nil {
				args = map[string]any{}
			}
			args["span"] = s.name
			evs = append(evs, ChromeEvent{Name: e.Name, Ph: "i", TS: us(e.Time), TID: depth[s.id], Args: args})
		}
	}
	dropped := t.dropped
	t.mu.Unlock()
	return EncodeChrome(evs, dropped, t.traceID)
}

// mustEncode marshals v with the given indent. The export structs contain
// nothing json.Marshal can reject.
func mustEncode(v any, indent string) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", indent)
	if err := enc.Encode(v); err != nil {
		panic(fmt.Sprintf("span: trace encoding: %v", err))
	}
	return buf.Bytes()
}
