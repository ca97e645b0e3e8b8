package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

func (s *wsem) waiterCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// mustAcquire takes a unit for tests that exercise the FIFO discipline
// rather than admission control.
func (s *wsem) mustAcquire(t *testing.T) {
	t.Helper()
	if err := s.acquire(context.Background()); err != nil {
		t.Fatalf("acquire: %v", err)
	}
}

// TestWsemFIFO pins the no-starvation property: waiters are granted in
// arrival order, one per released unit, and a newcomer joins behind the
// waiters already parked instead of taking the next freed unit.
func TestWsemFIFO(t *testing.T) {
	s := newWsem(2, 0)
	s.mustAcquire(t)
	s.mustAcquire(t)

	granted := make(chan int, 6)
	enqueue := func(i int) {
		depth := s.waiterCount()
		go func() { s.acquire(context.Background()); granted <- i }()
		waitFor(t, "waiter queued", func() bool { return s.waiterCount() == depth+1 })
	}
	for i := 0; i < 4; i++ {
		enqueue(i)
	}
	for i := 0; i < 6; i++ {
		s.release()
		if got := <-granted; got != i {
			t.Fatalf("grant %d went to waiter %d, want arrival order", i, got)
		}
		select {
		case got := <-granted:
			t.Fatalf("one released unit granted a second waiter (%d)", got)
		case <-time.After(5 * time.Millisecond):
		}
		if i < 2 {
			enqueue(4 + i) // newcomers queue behind the remaining waiters
		}
	}
	s.release()
	s.release()
	if s.inUse() != 0 || s.queueDepth() != 0 {
		t.Fatalf("inUse=%d depth=%d after all releases, want 0/0", s.inUse(), s.queueDepth())
	}
}

// TestWsemShedsBeyondQueueBound pins the admission contract: with
// maxQueue waiters already parked, further acquires fail fast with
// errShed, the queue never grows past the bound, and shed requests
// never held a unit.
func TestWsemShedsBeyondQueueBound(t *testing.T) {
	s := newWsem(1, 2)
	s.mustAcquire(t)

	granted := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			if err := s.acquire(context.Background()); err == nil {
				granted <- struct{}{}
			}
		}()
	}
	waitFor(t, "two queued waiters", func() bool { return s.queueDepth() == 2 })
	if !s.saturated() {
		t.Fatal("queue at bound not reported saturated")
	}

	for i := 0; i < 5; i++ {
		if err := s.acquire(context.Background()); !errors.Is(err, errShed) {
			t.Fatalf("acquire past the bound: err=%v, want errShed", err)
		}
		if s.queueDepth() != 2 {
			t.Fatalf("shed acquire grew the queue to %d", s.queueDepth())
		}
	}
	if s.shedCount() != 5 {
		t.Fatalf("shedCount %d, want 5", s.shedCount())
	}

	s.release()
	<-granted
	s.release()
	<-granted
	s.release()
	if s.inUse() != 0 || s.queueDepth() != 0 {
		t.Fatalf("inUse=%d depth=%d after drain, want 0/0", s.inUse(), s.queueDepth())
	}
}

// TestWsemCancelAbandonsQueueSlot pins the disconnected-client
// contract: a queued waiter whose ctx is cancelled leaves the queue
// without ever holding a unit, so the next freed unit goes to the
// waiter behind it.
func TestWsemCancelAbandonsQueueSlot(t *testing.T) {
	s := newWsem(1, 0)
	s.mustAcquire(t)

	ctx, cancel := context.WithCancel(context.Background())
	headErr := make(chan error, 1)
	go func() { headErr <- s.acquire(ctx) }()
	waitFor(t, "head queued", func() bool { return s.waiterCount() == 1 })

	next := make(chan struct{})
	go func() { s.acquire(context.Background()); close(next) }()
	waitFor(t, "successor queued", func() bool { return s.waiterCount() == 2 })

	cancel()
	if err := <-headErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v", err)
	}
	if s.queueDepth() != 1 || s.inUse() != 1 {
		t.Fatalf("inUse=%d depth=%d after the head left, want 1/1", s.inUse(), s.queueDepth())
	}
	s.release() // goes to the successor, not the abandoned slot
	select {
	case <-next:
	case <-time.After(2 * time.Second):
		t.Fatal("successor still parked after the head abandoned its slot")
	}
	s.release()
	if s.inUse() != 0 || s.queueDepth() != 0 {
		t.Fatalf("inUse=%d depth=%d, want 0/0 — cancelled waiter leaked a unit", s.inUse(), s.queueDepth())
	}
}

// TestWsemCancelAfterGrantReturnsUnits covers the race where the
// grant and the cancellation cross: the waiter must hand the unit
// straight back rather than leak it.
func TestWsemCancelAfterGrantReturnsUnits(t *testing.T) {
	s := newWsem(1, 0)
	for i := 0; i < 200; i++ {
		s.mustAcquire(t)
		ctx, cancel := context.WithCancel(context.Background())
		res := make(chan error, 1)
		go func() { res <- s.acquire(ctx) }()
		waitFor(t, "waiter queued", func() bool { return s.waiterCount() == 1 })
		// Release and cancel concurrently: whichever wins, the invariant
		// is that the unit ends up free.
		go s.release()
		cancel()
		if err := <-res; err == nil {
			s.release()
		}
		waitFor(t, "unit returned", func() bool { return s.inUse() == 0 && s.queueDepth() == 0 })
	}
}
