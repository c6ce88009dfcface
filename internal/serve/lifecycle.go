package serve

import (
	"context"
	"sync"
	"time"
)

// lifecycle is the state machine a Run and a Sweep share: the phase, the
// instants it began and ended, and the change signal its followers wait
// on. The owner guards its own mutable fields with the same mu.
type lifecycle struct {
	mu       sync.Mutex
	state    RunState
	created  time.Time
	finished time.Time

	// changed is closed on the owner's next change. It is made only when
	// somebody waits, so a change nobody follows costs nothing.
	changed chan struct{}
}

// notifyLocked wakes every waiter. Callers hold l.mu.
func (l *lifecycle) notifyLocked() {
	if l.changed != nil {
		close(l.changed)
		l.changed = nil
	}
}

// wait returns the state and a channel closed on the next change.
func (l *lifecycle) wait() (RunState, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.changed == nil {
		l.changed = make(chan struct{})
	}
	return l.state, l.changed
}

// State returns the lifecycle phase.
func (l *lifecycle) State() RunState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// follow calls emit once per observed change of l and returns true once
// l is terminal. Each round takes the state and the change channel before
// it emits, so the emit that sees the terminal state also sees everything
// published before it and is the last. follow returns false when ctx ends
// first or emit reports that its consumer is gone.
func follow(ctx context.Context, l *lifecycle, emit func() bool) bool {
	for {
		state, changed := l.wait()
		if !emit() {
			return false
		}
		if state.Terminal() {
			return true
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return false
		}
	}
}

// retainLocked forgets the oldest terminal entries of order beyond max,
// deleting each from byID and handing it to evicted (when non-nil).
// Queued and running entries are never forgotten. It returns the order
// that remains. Callers hold the registry's mu.
func retainLocked[T interface{ State() RunState }](order []int, byID map[int]T, max int, evicted func(T)) []int {
	terminal := 0
	for _, id := range order {
		if byID[id].State().Terminal() {
			terminal++
		}
	}
	if terminal <= max {
		return order
	}
	keep := order[:0]
	for _, id := range order {
		if v := byID[id]; terminal > max && v.State().Terminal() {
			terminal--
			delete(byID, id)
			if evicted != nil {
				evicted(v)
			}
			continue
		}
		keep = append(keep, id)
	}
	return keep
}

// optTime is t, or nil for the zero time, so JSON omits an instant that
// has not happened yet.
func optTime(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}
