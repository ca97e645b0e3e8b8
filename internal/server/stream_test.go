package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"staircase/internal/catalog"
	"staircase/internal/xmark"
)

// postStream posts one query to /stream and decodes the NDJSON lines.
func postStream(t *testing.T, url string, req QueryRequest) []StreamChunk {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	var chunks []StreamChunk
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var c StreamChunk
		if err := dec.Decode(&c); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, c)
	}
	return chunks
}

func TestStreamEndpoint(t *testing.T) {
	_, ts, ref := newTestServer(t, 1<<20)
	const q = "/descendant::profile/descendant::education"
	want, err := ref["mem"].EvalString(q, nil)
	if err != nil {
		t.Fatal(err)
	}

	chunks := postStream(t, ts.URL, QueryRequest{Doc: "mem", Query: q})
	if len(chunks) == 0 {
		t.Fatal("no stream output")
	}
	last := chunks[len(chunks)-1]
	if !last.Done || last.Error != "" {
		t.Fatalf("stream did not finish cleanly: %+v", last)
	}
	var got []int32
	for _, c := range chunks[:len(chunks)-1] {
		if c.Done || c.Error != "" {
			t.Fatalf("unexpected mid-stream chunk: %+v", c)
		}
		got = append(got, c.Nodes...)
	}
	if !sameNodes(got, want.Nodes) {
		t.Fatalf("stream nodes differ:\n got %v\nwant %v", got, want.Nodes)
	}
	if last.Count != len(want.Nodes) || last.Truncated {
		t.Fatalf("stream summary: %+v", last)
	}

	// With a limit the stream stops at the prefix and reports
	// truncation.
	lim := 1
	if len(want.Nodes) < 2 {
		t.Fatalf("fixture query too small for limit test")
	}
	chunks = postStream(t, ts.URL, QueryRequest{Doc: "mem", Query: q, Limit: lim})
	last = chunks[len(chunks)-1]
	var limGot []int32
	for _, c := range chunks[:len(chunks)-1] {
		limGot = append(limGot, c.Nodes...)
	}
	if !sameNodes(limGot, want.Nodes[:lim]) || !last.Truncated || last.Count != lim {
		t.Fatalf("limited stream: got %v, summary %+v", limGot, last)
	}

	// Malformed: batch shapes are rejected.
	body, _ := json.Marshal(QueryRequest{Doc: "mem", Queries: []string{q, q}})
	resp, err := http.Post(ts.URL+"/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch stream accepted: %d", resp.StatusCode)
	}
}

// TestCancelledQueryReleasesWorkerSlot: a long-running query whose
// client goes away must stop between batches and give its
// worker-semaphore units back — the request context propagates into
// plan execution.
func TestCancelledQueryReleasesWorkerSlot(t *testing.T) {
	cat := catalog.New(0)
	d, err := xmark.Generate(xmark.Config{SizeMB: 16, Seed: 3, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddDocument("big", d); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Catalog: cat, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// ~1s+ of per-node predicate evaluation over ~340k nodes; the
	// executor checks the context between predicate blocks.
	const slowQ = "//*[not(descendant::text() = 'a')][not(descendant::text() = 'b')]" +
		"[not(descendant::text() = 'c')][not(descendant::text() = 'd')]"

	body, _ := json.Marshal(QueryRequest{Doc: "big", Query: slowQ, NoCache: true})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	start := time.Now()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
	}
	// The client-side request fails with the cancellation; the server
	// side must notice, abandon the evaluation and drain the pool.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if s.pool.inUse() == 0 && s.cancels.Load() >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.pool.inUse(); got != 0 {
		t.Fatalf("cancelled query still holds %d worker units", got)
	}
	if s.cancels.Load() < 1 {
		t.Fatalf("server never recorded the cancellation (query ran to completion?)")
	}
	if elapsed := time.Since(start); elapsed > 1200*time.Millisecond {
		t.Fatalf("cancellation took %v; evaluation was not interrupted", elapsed)
	}
}

// TestStreamLeavesResultCache: /stream neither stores its result nor
// reads one /query stored under the same key, and counts no cache hit
// or miss; every stream answers the whole result.
func TestStreamLeavesResultCache(t *testing.T) {
	s, ts, ref := newTestServer(t, 1<<20)
	req := QueryRequest{Doc: "mem", Query: "/descendant::node()"}
	want, err := ref["mem"].EvalString(req.Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(step string) {
		t.Helper()
		entries, hits, misses := s.cache.Len(), s.cacheHits.Load(), s.cacheMisses.Load()
		chunks := postStream(t, ts.URL, req)
		var got []int32
		for _, ch := range chunks[:len(chunks)-1] {
			got = append(got, ch.Nodes...)
		}
		if last := chunks[len(chunks)-1]; !sameNodes(got, want.Nodes) || !last.Done || last.Count != len(want.Nodes) {
			t.Fatalf("%s: %d nodes, summary %+v", step, len(got), last)
		}
		if s.cache.Len() != entries || s.cacheHits.Load() != hits || s.cacheMisses.Load() != misses {
			t.Fatalf("%s moved the result cache: %d entries, %d hits, %d misses", step,
				s.cache.Len(), s.cacheHits.Load(), s.cacheMisses.Load())
		}
	}
	stream("first stream")
	stream("second stream")
	if s.cache.Len() != 0 {
		t.Fatalf("two streams left %d cache entries", s.cache.Len())
	}
	if resp, code := postQuery(t, ts.URL, req); code != http.StatusOK || resp.Results[0].Count != len(want.Nodes) || s.cache.Len() != 1 {
		t.Fatalf("/query: status %d, %d cache entries", code, s.cache.Len())
	}
	stream("stream after /query stored the result")
}

// blockedWriter is a ResponseWriter whose first Write parks until
// release closes: a stream held open by a client that stopped reading.
type blockedWriter struct {
	hdr     http.Header
	once    sync.Once
	wrote   chan struct{} // closed at the first Write
	release chan struct{}
}

func (w *blockedWriter) Header() http.Header { return w.hdr }
func (w *blockedWriter) WriteHeader(int)     {}
func (w *blockedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.wrote) })
	<-w.release
	return len(p), nil
}

// TestCursorHoldsOneWorkerUnit: a cursor execution (a limit query, a
// stream) holds one worker unit. With two units and one
// stream parked on a blocked writer, a second cold stream and cold
// limit queries must run at once instead of queueing behind it.
func TestCursorHoldsOneWorkerUnit(t *testing.T) {
	s, ts, cat := newChaosServer(t, Config{Workers: 2})

	bw := &blockedWriter{hdr: http.Header{}, wrote: make(chan struct{}), release: make(chan struct{})}
	held := make(chan struct{})
	go func() {
		defer close(held)
		body := strings.NewReader(`{"doc":"mem","query":"/descendant::person"}`)
		s.Handler().ServeHTTP(bw, httptest.NewRequest(http.MethodPost, "/stream", body))
	}()
	<-bw.wrote
	if got := s.pool.inUse(); got != 1 {
		t.Errorf("a parked stream holds %d worker units, want 1", got)
	}

	var queued atomic.Bool
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
				if s.pool.queueDepth() > 0 {
					queued.Store(true)
				}
			}
		}
	}()
	chunks := postStream(t, ts.URL, QueryRequest{Doc: "mem", Query: "/descendant::open_auction", TimeoutMs: 2000})
	if last := chunks[len(chunks)-1]; !last.Done || last.Error != "" {
		t.Errorf("second stream: %+v", last)
	}
	for _, noCache := range []bool{false, true} {
		resp, code := postQuery(t, ts.URL, QueryRequest{
			Doc: "mem", Query: "/descendant::bidder", Limit: 5, NoCache: noCache, TimeoutMs: 2000,
		})
		if code != http.StatusOK || resp.Results[0].Count != 5 {
			t.Errorf("limit query (noCache=%v): status %d %+v", noCache, code, resp.Results)
		}
	}
	close(stop)
	<-watched
	if queued.Load() {
		t.Error("a cold cursor execution queued behind one parked stream")
	}
	close(bw.release)
	<-held
	assertQuiesced(t, s, cat)
}
