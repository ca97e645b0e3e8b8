package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval: a call from the benchmark into a
// layer's public functions. Op is the script operation (or, in the
// layer replays, the distinct query) the span belongs to, shared by
// every span of one request; Parent is the span that caused it, -1 for
// a root. Times are nanoseconds since the tracer started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans in memory; they are written out when the run
// ends. All methods are no-ops on a nil tracer, which is what the
// untraced passes carry.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// beginOp opens the root span of a script operation.
func (t *tracer) beginOp(name string, op int32) int32 {
	if t == nil {
		return -1
	}
	return t.open(name, -1, op)
}

// begin opens a child span; it inherits the parent's operation.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	return t.open(name, parent, -1)
}

func (t *tracer) open(name string, parent, op int32) int32 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs f inside a child span and returns how long it took.
func (t *tracer) timed(name string, parent int32, f func()) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
