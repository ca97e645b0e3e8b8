package server

import (
	"context"
	"errors"
	"slices"
	"sync"

	"staircase/internal/fault"
)

// errShed is returned by acquire when the admission queue is full:
// the server maps it to 503 + Retry-After, shedding load instead of
// queueing unboundedly.
var errShed = errors.New("server overloaded: worker queue full")

// wsem is the server's worker semaphore: a FIFO counting semaphore over
// the shared worker budget, and its admission controller. Every query
// execution holds exactly one unit for its duration, so at most cap
// queries evaluate at once. Waiters are served strictly in arrival
// order.
//
// acquire is context-aware and queue-bounded. A waiter whose ctx is
// cancelled abandons its queue slot (a disconnected client can never
// receive — and briefly hold — a grant it will not use), and once
// maxQueue waiters are parked, further acquires fail with errShed
// immediately instead of growing the queue.
type wsem struct {
	mu       sync.Mutex
	cap      int
	used     int
	maxQueue int             // admission queue bound; 0 = unbounded
	waiters  []chan struct{} // FIFO; closed on grant
	shed     int64           // lifetime acquires rejected with errShed
}

func newWsem(capacity, maxQueue int) *wsem {
	return &wsem{cap: max(capacity, 1), maxQueue: max(maxQueue, 0)}
}

// take grants a unit at once when one is free and nobody is queued
// (nil, nil); otherwise it parks the caller at the tail of the queue and
// returns the channel its grant closes. It fails with errShed instead
// when maxQueue waiters are already parked.
func (s *wsem) take() (chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.waiters) == 0 && s.used < s.cap {
		s.used++
		return nil, nil
	}
	if s.maxQueue > 0 && len(s.waiters) >= s.maxQueue {
		s.shed++
		return nil, errShed
	}
	ready := make(chan struct{})
	s.waiters = append(s.waiters, ready)
	return ready, nil
}

// acquire blocks until a unit is free and takes it. It fails fast with
// errShed when the admission queue is at maxQueue, and with ctx.Err()
// when the context is cancelled while queued — abandoning the queue slot
// without ever holding the unit. A nil ctx never cancels.
func (s *wsem) acquire(ctx context.Context) error {
	if err := fault.HitCtx(ctx, "pool.acquire"); err != nil {
		return err
	}
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		done = ctx.Done()
	}
	ready, err := s.take()
	if ready == nil {
		return err
	}
	select {
	case <-ready:
		return nil
	case <-done:
		s.mu.Lock()
		select {
		case <-ready:
			// The grant raced the cancellation: the unit is ours, hand it
			// straight on.
			s.used--
			s.grantLocked()
		default:
			s.waiters = slices.DeleteFunc(s.waiters, func(w chan struct{}) bool { return w == ready })
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

func (s *wsem) release() {
	s.mu.Lock()
	s.used--
	s.grantLocked()
	s.mu.Unlock()
}

// grantLocked serves queued waiters in FIFO order while units last.
func (s *wsem) grantLocked() {
	for len(s.waiters) > 0 && s.used < s.cap {
		s.used++
		close(s.waiters[0])
		s.waiters = s.waiters[1:]
	}
}

// inUse reports the currently held units (metrics).
func (s *wsem) inUse() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// queueDepth reports the number of parked waiters — the
// worker_queue_depth gauge and the /readyz saturation signal.
func (s *wsem) queueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// shedCount reports the lifetime number of acquires rejected at the
// admission bound.
func (s *wsem) shedCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shed
}

// saturated reports whether the admission queue is at its bound — the
// /readyz "stop sending" signal. Always false when unbounded.
func (s *wsem) saturated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxQueue > 0 && len(s.waiters) >= s.maxQueue
}
