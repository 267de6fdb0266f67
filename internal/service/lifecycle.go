package service

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"
)

// State is a run's or sweep's lifecycle position.
type State string

// Lifecycle states. Runs go queued → running → {done, failed, canceled};
// sweeps start running. Queued runs that graceful shutdown could not
// start fail with errDropped (the "dropped" disposition). Terminal
// entries are eventually evicted by their kind's done-ring (TTL or
// capacity), after which their IDs answer 410 Gone.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether s is a terminal state.
func terminal(s State) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// isCancellation reports whether err means the work was aborted by
// cancellation or a deadline rather than failing on its own.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// lifecycle is the state a run (Job) and a sweep (SweepJob) share: the
// ID, the cancellation context, the state machine, and the NDJSON event
// stream of E (per-window events for runs, cell rows for sweeps). mu also
// guards the embedding type's own mutable fields.
type lifecycle[E any] struct {
	ID string

	hub  *streamHub[E]
	done chan struct{} // closed on retirement (done, failed, or canceled)

	ctx    context.Context    // cancelled to abort the work
	cancel context.CancelFunc // idempotent (context package guarantees)

	mu        sync.Mutex
	state     State
	err       error
	submitted time.Time
	finished  time.Time
}

// init starts a lifecycle in state with a fresh cancellation context.
func (l *lifecycle[E]) init(id string, state State, now time.Time) {
	l.ID = id
	l.hub = newStreamHub[E]()
	l.done = make(chan struct{})
	l.ctx, l.cancel = context.WithCancel(context.Background())
	l.state = state
	l.submitted = now
}

// State returns the current lifecycle state.
func (l *lifecycle[E]) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// Err returns the failure cause, if any.
func (l *lifecycle[E]) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Wait blocks until the lifecycle reaches a terminal state or ctx is
// cancelled.
func (l *lifecycle[E]) Wait(ctx context.Context) error {
	select {
	case <-l.done:
		return l.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retire moves to the terminal state err implies: done for nil, canceled
// for a cancellation (never partial results), failed otherwise. publish
// runs under mu with that state, so what it records (report bodies,
// counters) is in place before anyone can observe the state. retire then
// closes the stream and releases waiters. Idempotent: the first caller
// wins and later calls report false, since cancellation and the worker
// may race to retire one entry.
func (l *lifecycle[E]) retire(now time.Time, err error, publish func(State)) bool {
	l.mu.Lock()
	if terminal(l.state) {
		l.mu.Unlock()
		return false
	}
	switch {
	case err == nil:
		l.state = StateDone
	case isCancellation(err):
		l.state = StateCanceled
	default:
		l.state = StateFailed
	}
	l.err = err
	l.finished = now
	publish(l.state)
	l.mu.Unlock()
	l.cancel() // release the context's timer/goroutine resources
	l.hub.close()
	close(l.done)
	return true
}

// index is the resident set of one kind (runs or sweeps): lookup by ID,
// submission order for listings, and the done-ring of terminal entries
// awaiting TTL/capacity eviction. The Service's mu guards it.
type index[T comparable] struct {
	byID  map[string]T
	order []T
	ring  []doneEntry[T]
}

// doneEntry is one done-ring slot: a terminal entry and when it became
// terminal. Entries hold the value, not just the ID, because a canceled
// config may be resubmitted under the same deterministic ID while its
// predecessor still awaits eviction.
type doneEntry[T any] struct {
	id string
	v  T
	at time.Time
}

// add registers a new resident entry.
func (x *index[T]) add(id string, v T) {
	if x.byID == nil {
		x.byID = map[string]T{}
	}
	x.byID[id] = v
	x.order = append(x.order, v)
}

// retired queues a freshly-terminal entry for eviction.
func (x *index[T]) retired(id string, v T, now time.Time) {
	x.ring = append(x.ring, doneEntry[T]{id: id, v: v, at: now})
}

// expire evicts done-ring entries over capacity or past the TTL: each
// leaves the ID map and the listing, then evict frees what the kind
// holds. The identity check guards against a resubmission that reuses
// the ID while its predecessor waits here.
func (x *index[T]) expire(now time.Time, o Options, evict func(T)) {
	for len(x.ring) > 0 {
		e := x.ring[0]
		if len(x.ring) <= o.DoneCap && now.Sub(e.at) < o.DoneTTL {
			break
		}
		x.ring = x.ring[1:]
		if x.byID[e.id] == e.v {
			delete(x.byID, e.id)
		}
		if i := slices.Index(x.order, e.v); i >= 0 {
			x.order = slices.Delete(x.order, i, i+1)
		}
		evict(e.v)
	}
}
