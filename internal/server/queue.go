package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Admission-control errors, mapped onto HTTP statuses by the handlers:
// over-capacity rejections become 429 + Retry-After, drain rejections
// become 503 + Retry-After.
var (
	errOverCapacity = errors.New("server: admission queue is full; retry later")
	errDraining     = errors.New("server: draining; not accepting new work")
)

// waiter is one request parked in the admission queue. ch is closed
// exactly once — by a grant (slot transferred) or by a drain wake-up
// (err set first). granted/err are written under the admission lock
// before the close, so the waiter may read them lock-free after <-ch.
type waiter struct {
	ch      chan struct{}
	granted bool
	err     error
}

// admission is the traffic front door: a bounded count of in-flight
// admitted requests with a per-session FIFO overflow queue.
//
// Scheduling is round-robin across sessions: each session in the ring
// gets one grant a turn (FIFO within the session) before the cursor
// advances, so a hot session enqueueing thousands of requests cannot
// starve a session that enqueued one. With
// maxInflight <= 0 admission is unlimited (requests never queue) but
// in-flight work is still counted, so graceful drain can wait for idle
// regardless of configuration.
type admission struct {
	maxInflight int
	maxQueue    int

	mu       sync.Mutex
	inflight int
	queued   int
	draining bool
	sessions map[string][]*waiter // each session's FIFO of parked requests
	ring     []string             // sessions with waiters, round-robin order
	next     int                  // ring cursor
	idle     chan struct{}        // non-nil while a drainer waits for inflight==0
}

func newAdmission(maxInflight, maxQueue int) *admission {
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{
		maxInflight: maxInflight,
		maxQueue:    maxQueue,
		sessions:    make(map[string][]*waiter),
	}
}

// acquire admits one unit of work for the session, blocking in the fair
// queue while the server is at capacity. It returns a release function
// that must be called exactly once when the work finishes, plus how
// long the request waited in the queue (0 when admitted immediately).
// Errors: errOverCapacity when the queue is full, errDraining when the
// server is draining, or the context's error if it expired while
// queued.
func (a *admission) acquire(ctx context.Context, session string) (release func(), wait time.Duration, err error) {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return nil, 0, errDraining
	}
	if a.maxInflight <= 0 || a.inflight < a.maxInflight {
		a.inflight++
		a.mu.Unlock()
		return a.releaseOnce(), 0, nil
	}
	if a.queued >= a.maxQueue {
		a.mu.Unlock()
		return nil, 0, errOverCapacity
	}
	w := &waiter{ch: make(chan struct{})}
	if _, parked := a.sessions[session]; !parked {
		a.ring = append(a.ring, session)
	}
	a.sessions[session] = append(a.sessions[session], w)
	a.queued++
	a.mu.Unlock()

	start := time.Now()
	select {
	case <-w.ch:
		// Woken: either granted a transferred slot or rejected by drain.
		if w.err != nil {
			return nil, time.Since(start), w.err
		}
		return a.releaseOnce(), time.Since(start), nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// A grant raced our cancellation and transferred a slot to
			// us; pass it on rather than leak it.
			a.mu.Unlock()
			a.release()
			return nil, time.Since(start), ctx.Err()
		}
		a.dropWaiter(session, w)
		a.mu.Unlock()
		return nil, time.Since(start), ctx.Err()
	}
}

// releaseOnce wraps release so a double call by a confused handler
// cannot corrupt the in-flight count.
func (a *admission) releaseOnce() func() {
	var once sync.Once
	return func() { once.Do(a.release) }
}

// release finishes one admitted unit of work: the freed slot is handed
// to the next queued waiter (round-robin across sessions, FIFO within
// one) or, when the queue is empty, returned to the pool.
func (a *admission) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.ring) > 0 {
		if a.next >= len(a.ring) {
			a.next = 0
		}
		name := a.ring[a.next]
		q := a.sessions[name]
		if len(q) == 0 {
			// Session drained its queue (or its waiters all cancelled);
			// drop it from the ring without consuming the turn.
			a.dropSession(name)
			continue
		}
		w := q[0]
		a.queued--
		if len(q) == 1 {
			a.dropSession(name)
		} else {
			a.sessions[name] = q[1:]
			a.next++
		}
		// The slot transfers: inflight is unchanged.
		w.granted = true
		close(w.ch)
		return
	}
	a.inflight--
	if a.inflight == 0 && a.idle != nil {
		close(a.idle)
		a.idle = nil
	}
}

// dropSession removes a session from the scheduler ring (caller holds
// the lock). The cursor stays on the element that slid into this slot.
func (a *admission) dropSession(name string) {
	delete(a.sessions, name)
	for i, n := range a.ring {
		if n == name {
			a.ring = append(a.ring[:i], a.ring[i+1:]...)
			if a.next > i {
				a.next--
			}
			return
		}
	}
}

// dropWaiter removes a cancelled waiter from its session queue (caller
// holds the lock). The waiter may already be gone if a drain cleared
// the queues; that is fine.
func (a *admission) dropWaiter(session string, w *waiter) {
	q, parked := a.sessions[session]
	if !parked {
		return
	}
	for i, have := range q {
		if have == w {
			q = append(q[:i], q[i+1:]...)
			a.queued--
			break
		}
	}
	if len(q) == 0 {
		a.dropSession(session)
	} else {
		a.sessions[session] = q
	}
}

// beginDrain flips the controller into draining mode: every parked
// waiter is woken with errDraining and all future acquires are
// rejected. In-flight work is unaffected. Idempotent.
func (a *admission) beginDrain() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.draining {
		return
	}
	a.draining = true
	for _, q := range a.sessions {
		for _, w := range q {
			w.err = errDraining
			close(w.ch)
		}
	}
	a.sessions = make(map[string][]*waiter)
	a.ring = nil
	a.next = 0
	a.queued = 0
}

// unlessDraining runs f under the admission lock and reports true, or
// reports false without running it once beginDrain has been called: what
// f did happens before beginDrain returns.
func (a *admission) unlessDraining(f func()) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.draining {
		return false
	}
	f()
	return true
}

// waitIdle blocks until every admitted request has released (in-flight
// reaches zero) or the context expires, reporting how many were still
// running on timeout.
func (a *admission) waitIdle(ctx context.Context) error {
	a.mu.Lock()
	if a.inflight == 0 {
		a.mu.Unlock()
		return nil
	}
	if a.idle == nil {
		a.idle = make(chan struct{})
	}
	ch := a.idle
	a.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		n := a.inflight
		a.mu.Unlock()
		return fmt.Errorf("server: drain deadline passed with %d request(s) still in flight: %w", n, ctx.Err())
	}
}

// QueueStats is a point-in-time view of the admission controller, fed
// into the /metrics gauges.
type QueueStats struct {
	// Inflight is the number of admitted requests currently running.
	Inflight int `json:"inflight"`
	// Depth is the number of requests parked in the fair queue.
	Depth int `json:"depth"`
	// MaxInflight is the configured concurrency limit (0 = unlimited).
	MaxInflight int `json:"max_inflight"`
	// MaxQueue bounds Depth; requests beyond it are rejected with 429.
	MaxQueue int `json:"max_queue"`
	// Draining reports whether the server is shutting down gracefully.
	Draining bool `json:"draining"`
}

func (a *admission) stats() QueueStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return QueueStats{
		Inflight:    a.inflight,
		Depth:       a.queued,
		MaxInflight: a.maxInflight,
		MaxQueue:    a.maxQueue,
		Draining:    a.draining,
	}
}
