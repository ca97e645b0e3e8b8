package share

// Deterministic pace-car protocol tests over a controllable fake
// cursor: mid-flight attachment replays identical bytes, cancellation
// hands the wheel to a live follower, backpressure bounds how far the
// driver runs ahead of a slow follower, and abandonment cancels the
// flight without retiring. CI runs this package with -race -count=5
// across a GOMAXPROCS matrix.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"staircase/internal/fault"
)

var errBoom = errors.New("boom")

// fakeCursor yields a fixed batch sequence. With a step channel every
// Next call (including the terminal nil one) first blocks for a token,
// so tests control exactly when the pace car may produce.
type fakeCursor struct {
	batches  [][]int32
	errAt    int // Next index returning errBoom; -1 = never
	step     <-chan struct{}
	i        int
	produced *atomic.Int64
	closed   *atomic.Bool
}

func (c *fakeCursor) Next() ([]int32, error) {
	if c.step != nil {
		<-c.step
	}
	if c.errAt >= 0 && c.i == c.errAt {
		return nil, errBoom
	}
	if c.i >= len(c.batches) {
		return nil, nil
	}
	b := c.batches[c.i]
	c.i++
	if c.produced != nil {
		c.produced.Add(1)
	}
	return b, nil
}

func (c *fakeCursor) Close() {
	if c.closed != nil {
		c.closed.Store(true)
	}
}

func mkBatches(n int) [][]int32 {
	out := make([][]int32, n)
	v := int32(0)
	for i := range out {
		b := make([]int32, 3)
		for j := range b {
			b[j] = v
			v++
		}
		out[i] = b
	}
	return out
}

func concat(batches [][]int32) []int32 {
	var out []int32
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

func eq32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// drain pulls a follower to exhaustion and closes it.
func drain(t *testing.T, f *Follower) []int32 {
	t.Helper()
	defer f.Close()
	var out []int32
	for {
		b, err := f.Next(context.Background())
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if b == nil {
			return out
		}
		out = append(out, b...)
	}
}

func openFake(c *fakeCursor) OpenFunc {
	return func(context.Context) (Cursor, error) { return c, nil }
}

func TestSoloDrainRetiresIntoCache(t *testing.T) {
	r := NewRegistry(0, Hooks{})
	batches := mkBatches(5)
	var retired []int32
	retires := 0
	f, created := r.Join("k", Unbounded, openFake(&fakeCursor{batches: batches, errAt: -1}),
		func(nodes []int32) { retired = nodes; retires++ })
	if !created {
		t.Fatal("first Join did not create the flight")
	}
	got := drain(t, f)
	want := concat(batches)
	if !eq32(got, want) {
		t.Fatalf("solo drain = %v, want %v", got, want)
	}
	if retires != 1 || !eq32(retired, want) {
		t.Fatalf("retire: called %d times with %v, want once with %v", retires, retired, want)
	}
	if n := r.InFlight(); n != 0 {
		t.Fatalf("flight not removed after completion: %d in flight", n)
	}
	created64, coalesced, handoffs := r.Stats()
	if created64 != 1 || coalesced != 0 || handoffs != 0 {
		t.Fatalf("stats = %d/%d/%d, want 1/0/0", created64, coalesced, handoffs)
	}
}

// TestKeepBoundOwnsTheResult: a result larger than the owner's keep
// bound is never concatenated nor retired; one within it retires once,
// as exactly the concatenation at its final size, and Result hands out
// that same slice.
func TestKeepBoundOwnsTheResult(t *testing.T) {
	batches := mkBatches(5)
	want := concat(batches)
	for _, keep := range []int{-1, 0, len(want) - 1, len(want), Unbounded} {
		r := NewRegistry(0, Hooks{})
		var retired []int32
		retires := 0
		f, _ := r.Join("k", keep, openFake(&fakeCursor{batches: batches, errAt: -1}),
			func(nodes []int32) { retired = nodes; retires++ })
		drain(t, f)
		res := f.Result()
		if keep < len(want) {
			if retires != 0 || res != nil {
				t.Errorf("keep %d < %d nodes: retired %d times, Result %v", keep, len(want), retires, res)
			}
			continue
		}
		if retires != 1 || !eq32(retired, want) || cap(retired) != len(retired) {
			t.Errorf("keep %d: retired %d times with %v (cap %d), want once with %v at cap %d",
				keep, retires, retired, cap(retired), want, len(want))
		}
		if len(res) == 0 || &res[0] != &retired[0] {
			t.Errorf("keep %d: Result is not the retired slice", keep)
		}
	}
}

// TestSoloDrainAllocations pins what a solo flight allocates: one copy
// per batch, the completed slice, and a constant — the flight, its
// context and follower, and the batch list's logarithmic growth. A
// state change nobody waits for (every batch of a solo drain) allocates
// no channel.
func TestSoloDrainAllocations(t *testing.T) {
	const n = 100
	batches := mkBatches(n)
	r := NewRegistry(0, Hooks{})
	var retired []int32
	retire := func(nodes []int32) { retired = nodes }
	allocs := testing.AllocsPerRun(20, func() {
		f, _ := r.Join("k", Unbounded, openFake(&fakeCursor{batches: batches, errAt: -1}), retire)
		for {
			if b, err := f.Next(context.Background()); err != nil || b == nil {
				break
			}
		}
		f.Close()
	})
	if !eq32(retired, concat(batches)) {
		t.Fatalf("retired %d nodes, want %d", len(retired), 3*n)
	}
	const overhead = 20
	if allocs > n+1+overhead {
		t.Fatalf("a solo drain of %d batches allocates %v objects, want <= %d", n, allocs, n+1+overhead)
	}
}

func TestFollowerMidFlightSeesIdenticalBytes(t *testing.T) {
	r := NewRegistry(0, Hooks{})
	batches := mkBatches(6)
	want := concat(batches)
	step := make(chan struct{})
	pace, created := r.Join("k", Unbounded, openFake(&fakeCursor{batches: batches, errAt: -1, step: step}), nil)
	if !created {
		t.Fatal("expected creation")
	}

	paceBatches := make(chan []int32)
	paceOut := make(chan []int32, 1)
	go func() {
		var out []int32
		defer func() { pace.Close(); paceOut <- out }()
		for {
			b, err := pace.Next(context.Background())
			if err != nil || b == nil {
				return
			}
			out = append(out, b...)
			paceBatches <- b
		}
	}()

	// Let the pace car produce and consume exactly two batches.
	for i := 0; i < 2; i++ {
		step <- struct{}{}
		<-paceBatches
	}

	// A follower attaching now must replay those two batches
	// immediately — before the throttled cursor produces anything more.
	follower, created := r.Join("k", Unbounded, nil, nil)
	if created {
		t.Fatal("second Join created a new flight instead of coalescing")
	}
	var replay []int32
	for i := 0; i < 2; i++ {
		b, err := follower.Next(context.Background())
		if err != nil {
			t.Fatalf("follower replay: %v", err)
		}
		replay = append(replay, b...)
	}
	if !eq32(replay, want[:6]) {
		t.Fatalf("mid-flight replay = %v, want %v", replay, want[:6])
	}

	// Release the rest of the stream (4 batches + the terminal nil).
	followerOut := make(chan []int32, 1)
	go func() {
		out := replay
		defer func() { follower.Close(); followerOut <- out }()
		for {
			b, err := follower.Next(context.Background())
			if err != nil || b == nil {
				return
			}
			out = append(out, b...)
		}
	}()
	go func() {
		for range paceBatches { // keep the pace car unblocked
		}
	}()
	for i := 0; i < len(batches)-2+1; i++ {
		step <- struct{}{}
	}
	gotPace := <-paceOut
	close(paceBatches)
	gotFollower := <-followerOut
	if !eq32(gotPace, want) {
		t.Fatalf("pace car saw %v, want %v", gotPace, want)
	}
	if !eq32(gotFollower, want) {
		t.Fatalf("follower saw %v, want %v", gotFollower, want)
	}
	if _, coalesced, _ := statsOf(r); coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", coalesced)
	}
}

func statsOf(r *Registry) (int64, int64, int64) { return r.Stats() }

func TestPaceCarCancelPromotesFollower(t *testing.T) {
	r := NewRegistry(0, Hooks{})
	batches := mkBatches(4)
	want := concat(batches)
	cur := &fakeCursor{batches: batches, errAt: -1}
	ctx, cancel := context.WithCancel(context.Background())

	pace, _ := r.Join("k", Unbounded, openFake(cur), nil)
	b, err := pace.Next(ctx)
	if err != nil || !eq32(b, batches[0]) {
		t.Fatalf("pace car first batch = %v, %v", b, err)
	}
	follower, created := r.Join("k", Unbounded, nil, nil)
	if created {
		t.Fatal("follower did not coalesce")
	}

	// Cancel the pace car between batches: its next call must release
	// the wheel without touching the cursor.
	cancel()
	if _, err := pace.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pace car Next = %v, want context.Canceled", err)
	}
	pace.Close()

	// The follower replays batch 0, then takes over the same cursor.
	got := drain(t, follower)
	if !eq32(got, want) {
		t.Fatalf("promoted follower saw %v, want %v", got, want)
	}
	if _, _, handoffs := r.Stats(); handoffs != 1 {
		t.Fatalf("handoffs = %d, want 1", handoffs)
	}
	if n := r.InFlight(); n != 0 {
		t.Fatalf("flight not removed: %d in flight", n)
	}
}

func TestBackpressureBoundsDriverLag(t *testing.T) {
	const maxLag = 2
	r := NewRegistry(maxLag, Hooks{})
	batches := mkBatches(10)
	var produced atomic.Int64
	cur := &fakeCursor{batches: batches, errAt: -1, produced: &produced}

	pace, _ := r.Join("k", Unbounded, openFake(cur), nil)
	slow, created := r.Join("k", Unbounded, nil, nil)
	if created {
		t.Fatal("slow follower did not coalesce")
	}

	// The driver may produce maxLag batches ahead of the slow follower
	// (which has consumed nothing), then must park.
	for i := 0; i < maxLag; i++ {
		if _, err := pace.Next(context.Background()); err != nil {
			t.Fatalf("pace Next: %v", err)
		}
	}
	blocked := make(chan []int32, 1)
	go func() {
		b, _ := pace.Next(context.Background())
		blocked <- b
	}()
	select {
	case <-blocked:
		t.Fatalf("driver produced past the lag bound (%d batches produced)", produced.Load())
	case <-time.After(100 * time.Millisecond):
	}
	if n := produced.Load(); n != maxLag {
		t.Fatalf("cursor produced %d batches while parked, want %d", n, maxLag)
	}

	// One consume by the slow follower frees exactly one slot.
	if b, err := slow.Next(context.Background()); err != nil || !eq32(b, batches[0]) {
		t.Fatalf("slow follower batch = %v, %v", b, err)
	}
	select {
	case b := <-blocked:
		if !eq32(b, batches[maxLag]) {
			t.Fatalf("driver resumed with %v, want %v", b, batches[maxLag])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("driver did not resume after the slow follower consumed")
	}

	// Full drains still agree byte-for-byte.
	var wg sync.WaitGroup
	outs := make([][]int32, 2)
	wg.Add(2)
	go func() { defer wg.Done(); outs[0] = append(concat(batches[:maxLag+1]), drain(t, pace)...) }()
	go func() { defer wg.Done(); outs[1] = append(concat(batches[:1]), drain(t, slow)...) }()
	wg.Wait()
	want := concat(batches)
	if !eq32(outs[0], want) || !eq32(outs[1], want) {
		t.Fatalf("drains diverged:\n pace %v\n slow %v\n want %v", outs[0], outs[1], want)
	}
}

func TestAbandonCancelsFlightAndSkipsRetire(t *testing.T) {
	r := NewRegistry(0, Hooks{})
	var closed atomic.Bool
	var flightCtx context.Context
	retired := false
	open := func(ctx context.Context) (Cursor, error) {
		flightCtx = ctx
		return &fakeCursor{batches: mkBatches(8), errAt: -1, closed: &closed}, nil
	}
	f, _ := r.Join("k", Unbounded, open, func([]int32) { retired = true })
	if _, err := f.Next(context.Background()); err != nil {
		t.Fatalf("Next: %v", err)
	}
	f.Close()

	if n := r.InFlight(); n != 0 {
		t.Fatalf("abandoned flight still registered: %d in flight", n)
	}
	select {
	case <-flightCtx.Done():
	default:
		t.Fatal("flight context not cancelled on abandon")
	}
	if !closed.Load() {
		t.Fatal("cursor not closed on abandon")
	}
	if retired {
		t.Fatal("abandoned flight retired a partial buffer")
	}
	// The key is free again: the next client re-executes from scratch.
	if _, created := r.Join("k", Unbounded, open, nil); !created {
		t.Fatal("Join after abandon coalesced onto a dead flight")
	}
}

func TestCursorErrorReachesEveryFollower(t *testing.T) {
	r := NewRegistry(0, Hooks{})
	batches := mkBatches(3)
	cur := &fakeCursor{batches: batches, errAt: 2} // two good batches, then boom
	pace, _ := r.Join("k", Unbounded, openFake(cur), nil)
	follower, _ := r.Join("k", Unbounded, nil, nil)

	var paceErr error
	var got []int32
	for {
		b, err := pace.Next(context.Background())
		if err != nil {
			paceErr = err
			break
		}
		if b == nil {
			break
		}
		got = append(got, b...)
	}
	pace.Close()
	if !errors.Is(paceErr, errBoom) {
		t.Fatalf("pace car error = %v, want errBoom", paceErr)
	}
	if !eq32(got, concat(batches[:2])) {
		t.Fatalf("pace car pre-error batches = %v", got)
	}

	got = nil
	var folErr error
	for {
		b, err := follower.Next(context.Background())
		if err != nil {
			folErr = err
			break
		}
		if b == nil {
			break
		}
		got = append(got, b...)
	}
	follower.Close()
	if !errors.Is(folErr, errBoom) {
		t.Fatalf("follower error = %v, want errBoom", folErr)
	}
	if !eq32(got, concat(batches[:2])) {
		t.Fatalf("follower pre-error batches = %v", got)
	}
	if n := r.InFlight(); n != 0 {
		t.Fatalf("errored flight still registered: %d in flight", n)
	}
}

func TestCoalesceCounters(t *testing.T) {
	r := NewRegistry(0, Hooks{})
	step := make(chan struct{})
	batches := mkBatches(2)
	pace, created := r.Join("k", Unbounded, openFake(&fakeCursor{batches: batches, errAt: -1, step: step}), nil)
	if !created {
		t.Fatal("expected creation")
	}
	followers := make([]*Follower, 7)
	for i := range followers {
		var c bool
		followers[i], c = r.Join("k", Unbounded, nil, nil)
		if c {
			t.Fatalf("join %d created a duplicate flight", i)
		}
	}
	var wg sync.WaitGroup
	outs := make([][]int32, len(followers)+1)
	for i, f := range append([]*Follower{pace}, followers...) {
		wg.Add(1)
		go func(i int, f *Follower) { defer wg.Done(); outs[i] = drain(t, f) }(i, f)
	}
	for i := 0; i < len(batches)+1; i++ {
		step <- struct{}{}
	}
	wg.Wait()
	want := concat(batches)
	for i, out := range outs {
		if !eq32(out, want) {
			t.Fatalf("client %d saw %v, want %v", i, out, want)
		}
	}
	created64, coalesced, _ := r.Stats()
	if created64 != 1 || coalesced != 7 {
		t.Fatalf("created/coalesced = %d/%d, want 1/7", created64, coalesced)
	}
}

func TestWheelHooksBalance(t *testing.T) {
	var acquired, released atomic.Int64
	hooks := Hooks{
		OnWheel:     func(context.Context) error { acquired.Add(1); return nil },
		OnWheelDone: func() { released.Add(1) },
	}
	r := NewRegistry(0, hooks)
	batches := mkBatches(4)
	cur := &fakeCursor{batches: batches, errAt: -1}
	ctx, cancel := context.WithCancel(context.Background())
	pace, _ := r.Join("k", Unbounded, openFake(cur), nil)
	if _, err := pace.Next(ctx); err != nil {
		t.Fatalf("Next: %v", err)
	}
	follower, _ := r.Join("k", Unbounded, nil, nil)
	cancel()
	if _, err := pace.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Next = %v", err)
	}
	pace.Close()
	drain(t, follower)
	// Two wheel tenures (creator, then the promoted follower), every
	// acquire balanced by a release.
	if a, rl := acquired.Load(), released.Load(); a != 2 || rl != 2 {
		t.Fatalf("hook units acquired/released = %d/%d, want 2/2", a, rl)
	}
}

func TestNextAfterCloseFails(t *testing.T) {
	r := NewRegistry(0, Hooks{})
	f, _ := r.Join("k", Unbounded, openFake(&fakeCursor{batches: mkBatches(1), errAt: -1}), nil)
	f.Close()
	if _, err := f.Next(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next after Close = %v, want ErrClosed", err)
	}
}

// panicCursor panics on its nth Next call — the stand-in for a broken
// operator inside the pace car.
type panicCursor struct {
	fakeCursor
	panicAt int
}

func (c *panicCursor) Next() ([]int32, error) {
	if c.i == c.panicAt {
		panic("operator exploded")
	}
	return c.fakeCursor.Next()
}

// TestPanicInDriveAbortsFlight pins the pace-car containment
// boundary: a panicking cursor finishes the flight with a
// *fault.PanicError delivered to every follower, balances the wheel
// hooks, closes the cursor, and frees the registry slot — no wedged
// followers, no leaked capacity.
func TestPanicInDriveAbortsFlight(t *testing.T) {
	var acquired, released atomic.Int64
	hooks := Hooks{
		OnWheel:     func(context.Context) error { acquired.Add(1); return nil },
		OnWheelDone: func() { released.Add(1) },
	}
	r := NewRegistry(0, hooks)
	closed := &atomic.Bool{}
	cur := &panicCursor{fakeCursor: fakeCursor{batches: mkBatches(4), errAt: -1, closed: closed}, panicAt: 2}

	pace, _ := r.Join("k", Unbounded, func(context.Context) (Cursor, error) { return cur, nil }, nil)
	follower, _ := r.Join("k", Unbounded, nil, nil)
	defer pace.Close()
	defer follower.Close()

	errs := make(chan error, 2)
	for _, f := range []*Follower{pace, follower} {
		go func(f *Follower) {
			for {
				b, err := f.Next(context.Background())
				if err != nil || b == nil {
					errs <- err
					return
				}
			}
		}(f)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; !fault.IsPanic(err) {
			t.Fatalf("follower %d got %v, want recovered panic", i, err)
		}
	}
	if !closed.Load() {
		t.Fatal("cursor not closed after panic")
	}
	if r.InFlight() != 0 {
		t.Fatalf("flight still registered after panic")
	}
	if a, rl := acquired.Load(), released.Load(); a != rl || a == 0 {
		t.Fatalf("hook units acquired/released = %d/%d, want balanced and nonzero", a, rl)
	}
}

// TestPanicInOpenAbortsFlight pins containment of a panicking
// OpenFunc: the flight finishes with the recovered panic as its error
// rather than unwinding with the wheel held.
func TestPanicInOpenAbortsFlight(t *testing.T) {
	r := NewRegistry(0, Hooks{})
	f, _ := r.Join("k", Unbounded, func(context.Context) (Cursor, error) { panic("open exploded") }, nil)
	defer f.Close()
	if _, err := f.Next(context.Background()); !fault.IsPanic(err) {
		t.Fatalf("Next after panicking open = %v, want recovered panic", err)
	}
	if r.InFlight() != 0 {
		t.Fatal("flight still registered after open panic")
	}
}

// TestWheelDeniedFailsOnlyThatClient pins the admission interaction:
// when OnWheel rejects a candidate driver (shed or cancelled while
// queued), only that client fails — the flight stays live and the
// next follower takes the wheel and finishes the work.
func TestWheelDeniedFailsOnlyThatClient(t *testing.T) {
	var denials atomic.Int64
	hooks := Hooks{
		OnWheel: func(context.Context) error {
			if denials.Add(1) == 1 {
				return errBoom // first candidate is shed
			}
			return nil
		},
	}
	r := NewRegistry(0, hooks)
	batches := mkBatches(3)
	cur := &fakeCursor{batches: batches, errAt: -1}
	shedded, _ := r.Join("k", Unbounded, openFake(cur), nil)
	survivor, _ := r.Join("k", Unbounded, nil, nil)
	defer shedded.Close()

	if _, err := shedded.Next(context.Background()); !errors.Is(err, errBoom) {
		t.Fatalf("denied candidate got %v, want errBoom", err)
	}
	if got := drain(t, survivor); !eq32(got, concat(batches)) {
		t.Fatalf("survivor drained %v, want full result", got)
	}
}
