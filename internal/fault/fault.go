// Package fault is the deterministic fault-injection harness behind
// the chaos suite: named injection points compiled into the server
// stack that stay no-ops in production (one atomic load) and, when
// armed, inject errors, panics, or delays under a reproducible
// trigger discipline.
//
// A point is a string name at a failure-relevant seam — the stack
// registers these today:
//
//	catalog.load    before a catalog entry loads its document
//	doc.index.read  before a SCJ2 tag/kind index section is parsed
//	doc.vindex.read before a SCJ2 value-index section is parsed
//	cursor.next     on every public plan-cursor batch pull
//	pool.acquire    on every worker-semaphore admission
//	share.drive     before the pace car pulls a batch for its flight
//
// Rules bind actions to points. A rule fires on every Nth hit of its
// point (deterministic, the chaos suite's workhorse), with a given
// probability per hit (seeded PRNG, reproducible for a fixed seed and
// hit order), or both (either trigger fires it). A rule may carry a
// ctx tag: it then fires only for hits whose context was stamped with
// WithTag — targeting one request class without touching the rest of
// the traffic.
//
// Configuration is a spec string — from the STAIRCASE_FAULTS
// environment variable at startup, or Configure in tests:
//
//	point:mode[:p=F][:n=N][:d=DUR][:tag=T][;more...]
//
// where mode is error, panic, or delay. Examples:
//
//	cursor.next:error:p=0.05            5% of batch pulls error
//	catalog.load:panic:n=7              every 7th load panics
//	pool.acquire:delay:d=2ms:p=0.5      half the admissions stall 2ms
//	cursor.next:error:n=13:tag=stream   every 13th *stream* pull errors
//	seed=42                             PRNG seed (default 1)
//
// Injected errors wrap ErrInjected; injected panics carry a
// *PanicError-convertible value recognisable by IsInjectedPanic. The
// package also owns PanicError — the error a recovered panic is
// reported as throughout the stack — and the process-wide
// recovered-panic counter behind the server's
// panics_recovered_total metric, so every containment boundary
// (evalOne, stream loops, pace-car drive, join workers) counts
// through one place.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is wrapped by every injected error, so tests and
// operators can tell injected failures from organic ones with
// errors.Is.
var ErrInjected = errors.New("injected fault")

// Mode is the action a rule takes when it fires.
type Mode uint8

const (
	// ModeError makes the point return an error wrapping ErrInjected.
	ModeError Mode = iota
	// ModePanic makes the point panic (the containment boundaries are
	// expected to recover it into a *PanicError).
	ModePanic
	// ModeDelay makes the point sleep for the rule's duration, then
	// continue normally — the slow-disk / scheduler-stall simulator.
	ModeDelay
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// rule is one armed action at one point.
type rule struct {
	point  string
	mode   Mode
	prob   float64       // fire with this probability per hit (0 = off)
	everyN int64         // fire on every Nth hit (0 = off)
	delay  time.Duration // ModeDelay sleep
	tag    string        // only fire for contexts stamped WithTag(tag)

	hits  atomic.Int64
	fired atomic.Int64
}

// registry is the armed configuration. All of it swaps atomically
// under mu on Configure/Reset; Hit reads under mu only after the
// lock-free armed check.
var (
	armed atomic.Bool

	mu    sync.Mutex
	rules map[string][]*rule
	rng   *rand.Rand

	injected  atomic.Int64
	recovered atomic.Int64
)

func init() {
	if spec := os.Getenv("STAIRCASE_FAULTS"); spec != "" {
		if err := Configure(spec); err != nil {
			// A bad spec must not silently run a fault-free "chaos" job.
			panic(fmt.Sprintf("fault: bad STAIRCASE_FAULTS: %v", err))
		}
	}
}

// Configure replaces the armed rule set from a spec string (see the
// package comment for the grammar). An empty spec disarms everything,
// like Reset.
func Configure(spec string) error {
	newRules := make(map[string][]*rule)
	seed := int64(1)
	for _, item := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == '\n' }) {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if v, ok := strings.CutPrefix(item, "seed="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("fault: bad seed %q", v)
			}
			seed = n
			continue
		}
		r, err := parseRule(item)
		if err != nil {
			return err
		}
		newRules[r.point] = append(newRules[r.point], r)
	}
	mu.Lock()
	rules = newRules
	rng = rand.New(rand.NewSource(seed))
	mu.Unlock()
	armed.Store(len(newRules) > 0)
	return nil
}

// parseRule parses one point:mode[:opt...] item.
func parseRule(item string) (*rule, error) {
	parts := strings.Split(item, ":")
	if len(parts) < 2 {
		return nil, fmt.Errorf("fault: want point:mode[:opts], got %q", item)
	}
	r := &rule{point: parts[0]}
	switch parts[1] {
	case "error":
		r.mode = ModeError
	case "panic":
		r.mode = ModePanic
	case "delay":
		r.mode = ModeDelay
	default:
		return nil, fmt.Errorf("fault: unknown mode %q in %q", parts[1], item)
	}
	if r.point == "" {
		return nil, fmt.Errorf("fault: empty point name in %q", item)
	}
	for _, opt := range parts[2:] {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return nil, fmt.Errorf("fault: want key=value, got %q in %q", opt, item)
		}
		switch k {
		case "p":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("fault: bad probability %q in %q", v, item)
			}
			r.prob = p
		case "n":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("fault: bad every-N %q in %q", v, item)
			}
			r.everyN = n
		case "d":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("fault: bad delay %q in %q", v, item)
			}
			r.delay = d
		case "tag":
			r.tag = v
		default:
			return nil, fmt.Errorf("fault: unknown option %q in %q", k, item)
		}
	}
	if r.prob == 0 && r.everyN == 0 {
		r.everyN = 1 // a bare rule fires on every hit
	}
	if r.mode == ModeDelay && r.delay == 0 {
		return nil, fmt.Errorf("fault: delay rule without d= in %q", item)
	}
	return r, nil
}

// Reset disarms every rule and zeroes nothing — lifetime counters
// survive so tests can assert over windows.
func Reset() {
	mu.Lock()
	rules = nil
	rng = nil
	mu.Unlock()
	armed.Store(false)
}

// Enabled reports whether any rule is armed. The disabled fast path of
// Hit is exactly this one atomic load.
func Enabled() bool { return armed.Load() }

// InjectedTotal reports the lifetime count of fired rules (all points,
// all modes).
func InjectedTotal() int64 { return injected.Load() }

// tagKey carries WithTag stamps through a context.
type tagKey struct{}

// WithTag stamps ctx so rules carrying tag=T fire for hits under it.
// Multiple stamps nest; a hit matches a tagged rule when any stamp on
// the chain equals the rule's tag. While the package is disarmed the
// stamp is skipped entirely (no per-request allocation on the
// production path) — arm before the requests you want to tag.
func WithTag(ctx context.Context, tag string) context.Context {
	if !armed.Load() {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	tags, _ := ctx.Value(tagKey{}).([]string)
	return context.WithValue(ctx, tagKey{}, append(tags[:len(tags):len(tags)], tag))
}

// hasTag reports whether ctx carries the tag.
func hasTag(ctx context.Context, tag string) bool {
	if ctx == nil {
		return false
	}
	tags, _ := ctx.Value(tagKey{}).([]string)
	for _, t := range tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Hit evaluates the point with no context: tagged rules never fire.
// It returns an injected error, panics, or sleeps per the first armed
// rule that triggers; nil means "carry on". When the package is
// disarmed this is a single atomic load.
func Hit(point string) error { return HitCtx(nil, point) }

// HitCtx evaluates the point for a request context (nil behaves like
// Hit). See Hit.
func HitCtx(ctx context.Context, point string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	rs := rules[point]
	var act *rule
	for _, r := range rs {
		if r.tag != "" && !hasTag(ctx, r.tag) {
			continue
		}
		hits := r.hits.Add(1)
		fire := r.everyN > 0 && hits%r.everyN == 0
		if !fire && r.prob > 0 && rng.Float64() < r.prob {
			fire = true
		}
		if fire {
			act = r
			break
		}
	}
	mu.Unlock()
	if act == nil {
		return nil
	}
	act.fired.Add(1)
	injected.Add(1)
	switch act.mode {
	case ModePanic:
		panic(&injectedPanic{point: point})
	case ModeDelay:
		sleepCtx(ctx, act.delay)
		return nil
	default:
		return fmt.Errorf("fault: %s: %w", point, ErrInjected)
	}
}

// sleepCtx sleeps for d but returns early when ctx is cancelled — an
// injected delay must not outlive the request it is stalling.
func sleepCtx(ctx context.Context, d time.Duration) {
	if ctx == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// injectedPanic is the value an armed ModePanic rule panics with.
type injectedPanic struct{ point string }

func (p *injectedPanic) String() string {
	return fmt.Sprintf("fault: injected panic at %s", p.point)
}

// PanicError is the error a recovered panic is reported as: every
// containment boundary in the stack (request evaluation, stream
// loops, the pace-car drive, join workers) converts panics to this
// type via NewPanicError, so callers can both classify them
// (errors.As / IsPanic) and read the captured stack.
type PanicError struct {
	// Val is the recovered panic value.
	Val any
	// Stack is the goroutine stack captured at the recovery site.
	Stack []byte
}

// Error summarises the panic; the stack is available on the field for
// logging.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v [recovered]", e.Val)
}

// NewPanicError wraps a recovered panic value, capturing the current
// stack and counting it in Recovered. Call it inside the deferred
// recover so the stack is the panicking goroutine's. Passing an
// existing *PanicError (a contained panic crossing a second boundary)
// returns it unchanged without recounting.
func NewPanicError(v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		return pe
	}
	recovered.Add(1)
	return &PanicError{Val: v, Stack: debug.Stack()}
}

// IsPanic reports whether err carries a recovered panic.
func IsPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// IsInjectedPanic reports whether err is a recovered panic that this
// package injected (as opposed to an organic bug) — the chaos suite's
// way to tell expected chaos from real breakage.
func IsInjectedPanic(err error) bool {
	var pe *PanicError
	if !errors.As(err, &pe) {
		return false
	}
	_, ok := pe.Val.(*injectedPanic)
	return ok
}

// Recovered reports the lifetime count of panics converted to
// *PanicError across every containment boundary — the
// panics_recovered_total metric.
func Recovered() int64 { return recovered.Load() }

// Fired reports how many times rules on the named point have fired
// (tests).
func Fired(point string) int64 {
	mu.Lock()
	defer mu.Unlock()
	var n int64
	for _, r := range rules[point] {
		n += r.fired.Load()
	}
	return n
}
