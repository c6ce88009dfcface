package sched

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"cppcache/internal/span"
)

func TestDoTracedSpansPerJob(t *testing.T) {
	tr := span.New(0)
	root := tr.Start("batch", nil)
	const n = 40
	err := Do(n, 4, root,
		func(job int) string { return fmt.Sprintf("job-%d", job) },
		func(job int) error {
			if job == 7 {
				return errors.New("boom")
			}
			return nil
		})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	root.End()

	seen := map[string]span.SpanData{}
	for _, d := range tr.Snapshot() {
		if d.ParentID == root.ID() {
			seen[d.Name] = d
		}
	}
	if len(seen) != n {
		t.Fatalf("got %d job spans, want %d", len(seen), n)
	}
	for j := 0; j < n; j++ {
		d, ok := seen[fmt.Sprintf("job-%d", j)]
		if !ok {
			t.Fatalf("job %d has no span", j)
		}
		attrs := map[string]span.Attr{}
		for _, a := range d.Attrs {
			attrs[a.Key] = a
		}
		if got := attrs["job"].Int; got != int64(j) {
			t.Errorf("job %d span has job attr %d", j, got)
		}
		if w := attrs["worker"].Int; w < 0 || w >= 4 {
			t.Errorf("job %d worker attr %d out of range", j, w)
		}
		if d.End.IsZero() {
			t.Errorf("job %d span left open", j)
		}
		if j == 7 && attrs["error"].Str != "boom" {
			t.Errorf("failed job span attrs = %+v, want error=boom", d.Attrs)
		}
		if j != 7 {
			if _, has := attrs["error"]; has {
				t.Errorf("job %d has spurious error attr", j)
			}
		}
	}
}

func TestDoTracedNilParentIsPlainDo(t *testing.T) {
	const n = 16
	ran := make([]int, n)
	var mu sync.Mutex
	err := Do(n, 3, nil, nil,
		func(job int) error {
			mu.Lock()
			ran[job]++
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range ran {
		if c != 1 {
			t.Fatalf("job %d ran %d times", j, c)
		}
	}
}
