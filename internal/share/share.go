// Package share coalesces identical in-flight query executions: the
// pace-car protocol behind xpathd's shared-scan mode.
//
// N clients that miss the result cache on the same key today each run
// the full plan — N× the work for one answer. The registry here keeps
// one "flight" per key (the server keys flights exactly like result
// cache entries: document, generation, canonical plan, limit — so the
// generation stamp that guards the cache against reload-after-eviction
// guards the shared buffer too). The first client to need a batch
// becomes the pace car: it drives the underlying cursor and appends
// each batch to the flight's shared buffer. Followers that attach
// mid-flight replay the already-produced prefix immediately, then
// block on a broadcast for new batches — every client observes the
// exact byte sequence a solo execution would have produced, because
// there is only one execution.
//
// Three correctness traps shape the protocol:
//
//   - The wheel must survive its driver. The cursor is opened against
//     the flight's own context, not the pace car's request context; a
//     cancelled pace car releases the wheel between batches and the
//     next live follower picks it up and keeps driving the same cursor
//     (a "handoff"). Only when the last follower leaves is the flight
//     abandoned: its context is cancelled, the cursor closed, and the
//     registry slot freed for a fresh execution.
//
//   - Production is paced, not unbounded. The driver never runs more
//     than maxLag batches ahead of the slowest attached follower
//     (backpressure via the same broadcast channel), so one slow
//     client bounds speculative buffering instead of forcing the
//     flight to materialise arbitrarily far ahead of consumption. The
//     consumed prefix is retained, one exact-size copy per batch, until
//     the flight completes.
//
//   - Coalescing and caching share one entry. The flight's owner names
//     the largest result it keeps; on completion a result within that
//     bound is concatenated once, at its final size, and retired through
//     a callback (the server's cache.Put under the identical key), and
//     the flight leaves the registry, so the next cold client hits the
//     cache instead of a dead flight. A larger result is never copied
//     whole: its batches die with the flight.
//
// The drive is also a panic-containment boundary: a panicking cursor
// (or plan open) becomes a *fault.PanicError that finishes the flight
// like any execution error — every follower sees it, the wheel hooks
// balance, and no semaphore unit leaks — instead of unwinding through
// the registry with capacity held.
//
// Lock ordering: Registry.mu before flight.mu, never the reverse.
package share

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"staircase/internal/fault"
)

// Cursor is the execution a flight drives: a batch iterator in final
// output order. Next returns a nil batch at exhaustion; the returned
// slice may be reused by the next call (the flight copies it into the
// shared buffer before releasing the mutex).
type Cursor interface {
	Next() ([]int32, error)
	Close()
}

// OpenFunc starts the underlying execution. It receives the flight's
// context — cancelled only when the flight is abandoned, never when an
// individual client disconnects.
type OpenFunc func(ctx context.Context) (Cursor, error)

// Hooks let the owner account for the wheel: the server maps OnWheel /
// OnWheelDone to worker-semaphore acquire/release, so exactly one
// client of a flight — the current driver — holds a worker unit, while
// followers are just blocked handlers. Hooks are invoked outside all
// registry and flight locks; OnWheel may block, waiting on ctx — the
// candidate driver's own request context, so a queued wheel take
// abandons when that client disconnects. An OnWheel error (admission
// shed, cancellation) is returned to that candidate alone: the flight
// stays live and another follower may take the wheel.
type Hooks struct {
	OnWheel     func(ctx context.Context) error
	OnWheelDone func()
}

// DefaultMaxLag is the backpressure window when NewRegistry is given a
// non-positive one: the driver stays within this many batches of the
// slowest live follower.
const DefaultMaxLag = 8

// Unbounded is the keep bound of an owner that keeps every result.
const Unbounded = math.MaxInt

// ErrClosed is returned by Next on a follower that was already closed.
var ErrClosed = errors.New("share: follower used after Close")

// Registry is the set of in-flight executions, one per key. Safe for
// concurrent use.
type Registry struct {
	mu      sync.Mutex
	flights map[string]*flight
	hooks   Hooks
	maxLag  int

	created   atomic.Int64
	coalesced atomic.Int64
	handoffs  atomic.Int64
}

// NewRegistry returns an empty registry. maxLag bounds how many
// batches the pace car may run ahead of the slowest follower
// (non-positive selects DefaultMaxLag).
func NewRegistry(maxLag int, hooks Hooks) *Registry {
	if maxLag <= 0 {
		maxLag = DefaultMaxLag
	}
	return &Registry{flights: make(map[string]*flight), hooks: hooks, maxLag: maxLag}
}

// Stats reports lifetime counters: flights created (cold executions
// actually started), joins coalesced onto an existing flight, and
// pace-car handoffs (wheel passed to a different client after the
// previous driver left mid-flight).
func (r *Registry) Stats() (created, coalesced, handoffs int64) {
	return r.created.Load(), r.coalesced.Load(), r.handoffs.Load()
}

// InFlight reports the number of live flights (tests, metrics).
func (r *Registry) InFlight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.flights)
}

// Join attaches to the flight under key, creating it when absent (or
// when the resident flight is already abandoned and merely awaiting
// removal). The returned bool reports creation: the creating client is
// the one whose keep/open/retire are bound to the flight, and — being
// the first to call Next — almost always its initial pace car. keep is
// the largest result, in nodes, the owner keeps: a completed result of
// at most keep nodes becomes one slice, which retire receives and
// Result returns; a larger one is never built (nor retired).
func (r *Registry) Join(key string, keep int, open OpenFunc, retire func(nodes []int32)) (*Follower, bool) {
	r.mu.Lock()
	if fl, ok := r.flights[key]; ok {
		fl.mu.Lock()
		if !fl.abandoned {
			f := &Follower{fl: fl}
			fl.followers[f] = struct{}{}
			fl.mu.Unlock()
			r.mu.Unlock()
			r.coalesced.Add(1)
			return f, false
		}
		fl.mu.Unlock() // dying flight: replace it below
	}
	ctx, cancel := context.WithCancel(context.Background())
	fl := &flight{
		reg:       r,
		key:       key,
		keep:      keep,
		open:      open,
		retire:    retire,
		ctx:       ctx,
		cancel:    cancel,
		followers: make(map[*Follower]struct{}),
	}
	f := &Follower{fl: fl}
	fl.followers[f] = struct{}{}
	r.flights[key] = fl
	r.mu.Unlock()
	r.created.Add(1)
	return f, true
}

// remove deletes fl from the registry unless it was already replaced.
func (r *Registry) remove(fl *flight) {
	r.mu.Lock()
	if r.flights[fl.key] == fl {
		delete(r.flights, fl.key)
	}
	r.mu.Unlock()
}

func (r *Registry) onWheel(ctx context.Context) error {
	if h := r.hooks.OnWheel; h != nil {
		return h(ctx)
	}
	return nil
}

func (r *Registry) onWheelDone() {
	if h := r.hooks.OnWheelDone; h != nil {
		h()
	}
}

// flight is one shared execution. The buffer holds each produced batch
// as its own exact-size copy; batches are immutable once appended, so
// followers hand them out without copying, and growing the batch list
// leaves every batch where it is.
type flight struct {
	reg    *Registry
	key    string
	keep   int // largest result the owner keeps, in nodes
	open   OpenFunc
	retire func(nodes []int32)
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	notify    chan struct{} // closed on the next state change; nil when nobody waits
	waiters   int           // clients parked on notify
	batches   [][]int32
	nodes     int     // total nodes across batches
	result    []int32 // the completed result, when within keep
	done      bool
	err       error
	opened    bool
	cur       Cursor
	driver    *Follower
	last      *Follower // last client to hold the wheel (handoff accounting)
	lagWait   bool      // driver is parked on backpressure
	abandoned bool
	followers map[*Follower]struct{}
}

// broadcastLocked wakes every waiter (followers parked for new batches
// and a driver parked on backpressure). With nobody parked it does
// nothing: a state change nobody waits for costs no channel.
func (fl *flight) broadcastLocked() {
	if fl.waiters > 0 {
		close(fl.notify)
		fl.notify, fl.waiters = nil, 0
	}
}

// waitLocked parks until the next broadcast or until ctx is done.
// Called with fl.mu held; returns with it held.
func (fl *flight) waitLocked(ctx context.Context) {
	if fl.notify == nil {
		fl.notify = make(chan struct{})
	}
	ch := fl.notify
	fl.waiters++
	fl.mu.Unlock()
	select {
	case <-ch:
	case <-ctx.Done():
	}
	fl.mu.Lock()
	if fl.notify == ch {
		fl.waiters-- // woken by ctx, not by a broadcast
	}
}

// appendLocked keeps an exact-size copy of one produced batch.
func (fl *flight) appendLocked(b []int32) []int32 {
	c := make([]int32, len(b))
	copy(c, b)
	fl.batches = append(fl.batches, c)
	fl.nodes += len(c)
	return c
}

// flatten joins batches into one exact-size slice (nil when empty).
func flatten(batches [][]int32, n int) []int32 {
	if n == 0 {
		return nil
	}
	out := make([]int32, 0, n)
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// lagExceededLocked reports whether producing another batch would put
// the driver more than maxLag batches ahead of the slowest live
// follower other than the driver itself (which always sits at the tip).
func (fl *flight) lagExceededLocked(driver *Follower) bool {
	min, any := 0, false
	for f := range fl.followers {
		if f == driver {
			continue
		}
		if !any || f.pos < min {
			min, any = f.pos, true
		}
	}
	return any && len(fl.batches)-min >= fl.reg.maxLag
}

// Follower is one client's view of a flight. Not safe for concurrent
// use by multiple goroutines (each client holds its own follower).
type Follower struct {
	fl     *flight
	pos    int // next batch index to consume
	closed bool
}

// Next returns the next result batch in document order, nil at
// exhaustion. It serves the shared buffer when the follower lags
// behind it, takes the wheel and drives the cursor when the buffer is
// drained and nobody else is driving, and otherwise blocks until the
// driver produces more or ctx is cancelled. A driver keeps the wheel
// across calls; it releases it on completion, cursor error, or its own
// ctx cancellation — in the latter case the flight stays live for the
// remaining followers.
func (f *Follower) Next(ctx context.Context) ([]int32, error) {
	fl := f.fl
	fl.mu.Lock()
	for {
		if f.closed {
			fl.mu.Unlock()
			return nil, ErrClosed
		}
		if f.pos < len(fl.batches) {
			b := fl.batches[f.pos]
			f.pos++
			if fl.lagWait {
				fl.broadcastLocked() // un-park the driver
			}
			fl.mu.Unlock()
			return b, nil
		}
		if fl.done {
			err := fl.err
			fl.mu.Unlock()
			return nil, err
		}
		if fl.driver == f {
			// Still holding the wheel from a previous call.
			fl.mu.Unlock()
			return f.drive(ctx)
		}
		if fl.driver == nil {
			tookOver := fl.last != nil && fl.last != f
			fl.driver, fl.last = f, f
			fl.mu.Unlock()
			if err := fl.reg.onWheel(ctx); err != nil {
				// Admission denied this candidate the wheel (shed, or its
				// own ctx cancelled while queued): put the wheel back for
				// the next follower and fail only this client.
				fl.mu.Lock()
				if fl.driver == f {
					fl.driver = nil
				}
				fl.broadcastLocked()
				fl.mu.Unlock()
				return nil, err
			}
			if tookOver {
				fl.reg.handoffs.Add(1)
			}
			return f.drive(ctx)
		}
		fl.waitLocked(ctx)
		if err := ctx.Err(); err != nil {
			fl.mu.Unlock()
			return nil, err
		}
	}
}

// Result returns the completed result as one slice — the slice the
// flight retired — once Next has reported exhaustion. It is nil when
// the result outgrew the owner's keep bound (the client then holds the
// batches it was handed), when the result is empty, and after an error.
// The slice is shared and read-only.
func (f *Follower) Result() []int32 {
	fl := f.fl
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.result
}

// safeOpen contains panics out of the flight's OpenFunc: a panicking
// plan open must abort the flight with an error, not unwind through
// the registry with the wheel still held.
func safeOpen(open OpenFunc, ctx context.Context) (cur Cursor, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fault.NewPanicError(v)
		}
	}()
	return open(ctx)
}

// safeNext pulls one batch from the flight cursor with the pace-car
// containment boundary around it: a panicking operator (or an
// injected share.drive fault) becomes an error that finishes the
// flight — propagated to every follower, wheel released, semaphore
// hooks balanced — instead of unwinding with capacity held.
func safeNext(ctx context.Context, cur Cursor) (b []int32, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fault.NewPanicError(v)
		}
	}()
	if err := fault.HitCtx(ctx, "share.drive"); err != nil {
		return nil, err
	}
	return cur.Next()
}

// safeClose closes the flight cursor, swallowing a panic from a
// cursor already broken by the failure that is being cleaned up.
func safeClose(cur Cursor) {
	defer func() { _ = recover() }()
	cur.Close()
}

// drive produces the next batch while f holds the wheel. Every return
// path except a successful batch releases the wheel (and balances the
// OnWheel hook); a successful batch keeps it for the next call.
func (f *Follower) drive(ctx context.Context) ([]int32, error) {
	fl := f.fl
	fl.mu.Lock()
	if !fl.opened {
		fl.mu.Unlock()
		cur, err := safeOpen(fl.open, fl.ctx) // flight ctx: outlives this client
		fl.mu.Lock()
		fl.opened = true
		if err != nil {
			return f.finishLocked(nil, err)
		}
		fl.cur = cur
	}
	// Backpressure: stay within maxLag batches of the slowest follower.
	for fl.lagExceededLocked(f) {
		if err := ctx.Err(); err != nil {
			return f.releaseWheelLocked(err)
		}
		fl.lagWait = true
		fl.waitLocked(ctx)
		fl.lagWait = false
	}
	if err := ctx.Err(); err != nil {
		return f.releaseWheelLocked(err)
	}
	cur := fl.cur
	fl.mu.Unlock()

	b, err := safeNext(ctx, cur) // the actual work happens outside all locks
	fl.mu.Lock()
	if err != nil {
		safeClose(cur)
		return f.finishLocked(nil, err)
	}
	if b == nil {
		safeClose(cur)
		var result []int32
		if fl.nodes <= fl.keep {
			// Only the driver appends, and it holds the wheel: the
			// batches stay as they are while the lock is released.
			batches, n := fl.batches, fl.nodes
			fl.mu.Unlock()
			result = flatten(batches, n)
			fl.mu.Lock()
		}
		return f.finishLocked(result, nil)
	}
	out := fl.appendLocked(b)
	f.pos = len(fl.batches)
	fl.broadcastLocked()
	fl.mu.Unlock()
	return out, nil
}

// releaseWheelLocked hands the wheel back mid-flight (driver ctx
// cancelled): the flight stays live and the next follower to wake
// takes over the same cursor. Called with fl.mu held; unlocks it.
func (f *Follower) releaseWheelLocked(err error) ([]int32, error) {
	fl := f.fl
	fl.driver = nil
	fl.broadcastLocked()
	fl.mu.Unlock()
	fl.reg.onWheelDone()
	return nil, err
}

// finishLocked terminates the flight: completion (err == nil; a result
// within the keep bound arrives concatenated and retires into the
// owner's cache) or execution error (propagated to every follower).
// Called with fl.mu held; unlocks it.
func (f *Follower) finishLocked(result []int32, err error) ([]int32, error) {
	fl := f.fl
	kept := err == nil && fl.nodes <= fl.keep
	fl.done = true
	fl.err = err
	fl.result = result
	fl.driver = nil
	fl.broadcastLocked()
	fl.mu.Unlock()
	fl.reg.remove(fl) // future clients go through the cache instead
	if kept && fl.retire != nil {
		fl.retire(result)
	}
	fl.reg.onWheelDone()
	return nil, err
}

// Close detaches the follower. If it held the wheel, the wheel is
// released for the next follower; if it was the last follower of an
// unfinished flight, the flight is abandoned — context cancelled,
// cursor closed, registry slot freed — and nothing retires. Close is
// idempotent.
func (f *Follower) Close() {
	fl := f.fl
	fl.mu.Lock()
	if f.closed {
		fl.mu.Unlock()
		return
	}
	f.closed = true
	delete(fl.followers, f)
	wasDriver := fl.driver == f
	if wasDriver {
		fl.driver = nil
	}
	abandon := len(fl.followers) == 0 && !fl.done
	if abandon {
		fl.abandoned = true // Join treats the flight as gone from here on
	}
	cur := fl.cur
	fl.broadcastLocked()
	fl.mu.Unlock()
	if wasDriver {
		fl.reg.onWheelDone()
	}
	if abandon {
		fl.cancel()
		if cur != nil {
			safeClose(cur)
		}
		fl.reg.remove(fl)
	}
}
