package cppcache

import (
	"context"
	"reflect"
	"testing"

	"cppcache/internal/span"
)

// TestTracingIsInert: attaching a span to an observed run must not change
// any simulation output — the result struct, the interval snapshot series
// and the rendered metrics CSV must be byte-identical to an untraced run —
// while the tracer itself captures the full stage breakdown.
func TestTracingIsInert(t *testing.T) {
	for _, cfg := range []CacheConfig{CPP, BC} {
		for _, functional := range []bool{true, false} {
			opts := Options{Scale: 1, FunctionalOnly: functional,
				Observe: &ObserveOptions{IntervalCycles: 5000}}
			base, baseObs, err := Run(context.Background(), "olden.treeadd", cfg, opts)
			if err != nil {
				t.Fatal(err)
			}

			tr := span.New(0)
			root := tr.Start("run", nil)
			traced := opts
			traced.Span = root
			got, gotObs, err := Run(context.Background(), "olden.treeadd", cfg, traced)
			root.End()
			if err != nil {
				t.Fatal(err)
			}

			if got != base {
				t.Errorf("%s functional=%v: results diverged under tracing\n  base: %+v\n  got:  %+v",
					cfg, functional, base, got)
			}
			if !reflect.DeepEqual(baseObs.Snapshots(), gotObs.Snapshots()) {
				t.Errorf("%s functional=%v: snapshot series diverged under tracing", cfg, functional)
			}
			if baseObs.MetricsCSV() != gotObs.MetricsCSV() {
				t.Errorf("%s functional=%v: metrics CSV diverged under tracing", cfg, functional)
			}

			// The traced run must have captured the full stage anatomy,
			// correctly nested and closed.
			stages := map[string]span.SpanData{}
			for _, d := range tr.Snapshot() {
				stages[d.Name] = d
			}
			for _, name := range []string{"workload.build", "sim.build", "sim.run", "sim.finish"} {
				d, ok := stages[name]
				if !ok {
					t.Fatalf("%s functional=%v: no %q span (have %d spans)", cfg, functional, name, tr.Len())
				}
				if d.ParentID != root.ID() {
					t.Errorf("%s span not parented on the run root", name)
				}
				if d.End.IsZero() {
					t.Errorf("%s span left open", name)
				}
				if d.Start.Before(stages["workload.build"].Start) {
					t.Errorf("%s span starts before workload.build", name)
				}
			}
			wb := stages["workload.build"]
			if len(wb.Events) != 1 || wb.Events[0].Name != "decode.cache" {
				t.Errorf("workload.build events = %+v, want one decode.cache event", wb.Events)
			}
		}
	}
}

// TestTracingNilSpanRecordsNothing: the disabled path must leave the
// tracer untouched (the Options zero value carries a nil span, and every
// hook downstream must no-op through it).
func TestTracingNilSpanRecordsNothing(t *testing.T) {
	opts := Options{Scale: 1, FunctionalOnly: true, Observe: &ObserveOptions{}}
	_, _, err := Run(context.Background(), "olden.treeadd", BC, opts)
	if err != nil {
		t.Fatal(err)
	}
	var nilSpan *span.Span
	opts.Span = nilSpan
	_, _, err = Run(context.Background(), "olden.treeadd", BC, opts)
	if err != nil {
		t.Fatal(err)
	}
}
