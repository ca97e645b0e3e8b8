package server

// The chaos suite: drive the server with randomized concurrent
// traffic while the fault harness injects errors, panics, and delays
// at every registered seam, then assert the survival invariants — no
// leaked worker units, no leaked catalog references, no wedged
// flights, and a well-formed response for every request. Run under
// -race in CI (the chaos job); STAIRCASE_CHAOS_REQUESTS boosts the
// request count for the nightly run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"staircase/internal/catalog"
	"staircase/internal/fault"
	"staircase/internal/xmark"
)

// newChaosServer builds a server whose catalog has a pinned in-memory
// document and a disk-backed one under a 1-byte residency budget, so
// the disk document reloads on every Open and the catalog.load fault
// point stays hot. Returns the server, test listener, and catalog.
func newChaosServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New(1)
	dm, err := xmark.Generate(xmark.Config{SizeMB: 0.08, Seed: 1, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddDocument("mem", dm); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "disk.xml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := xmark.Write(f, xmark.Config{SizeMB: 0.05, Seed: 2, KeepValues: true}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("disk", path, catalog.FormatAuto); err != nil {
		t.Fatal(err)
	}
	cfg.Catalog = cat
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, cat
}

// chaosRequests returns the chaos-suite request count: 200 by
// default (the acceptance floor), boosted via STAIRCASE_CHAOS_REQUESTS
// in the nightly CI job.
func chaosRequests() int {
	if s := os.Getenv("STAIRCASE_CHAOS_REQUESTS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 200
}

// wellFormedStatus is the full set of statuses a request may
// legitimately receive under chaos.
var wellFormedStatus = map[int]bool{
	http.StatusOK:                  true,
	http.StatusBadRequest:          true,
	http.StatusNotFound:            true,
	http.StatusRequestTimeout:      true,
	http.StatusInternalServerError: true,
	http.StatusServiceUnavailable:  true,
}

// assertQuiesced waits for the post-traffic invariants: every worker
// unit released, no parked waiters, no live flights, no open catalog
// references. Failure here means a fault leaked a resource.
func assertQuiesced(t *testing.T, s *Server, cat *catalog.Catalog) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		inUse, depth := s.pool.inUse(), s.pool.queueDepth()
		inFlight, refs := s.flights.InFlight(), cat.OpenRefs()
		if inUse == 0 && depth == 0 && inFlight == 0 && refs == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("not quiesced: workers=%d queue=%d flights=%d refs=%d",
				inUse, depth, inFlight, refs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// chaosSpec arms every registered injection point at once: flaky
// loads, corrupt-read panics, mid-stream errors and panics, admission
// failures and stalls, and pace-car drive panics. Deterministic for
// the fixed seed and hit order.
const chaosSpec = "catalog.load:error:p=0.3;" +
	"cursor.next:error:p=0.05;" +
	"cursor.next:panic:p=0.02;" +
	"pool.acquire:error:p=0.04;" +
	"pool.acquire:delay:d=1ms:p=0.1;" +
	"share.drive:panic:p=0.05;" +
	"seed=7"

// TestChaosSurvival is the headline robustness test: randomized
// concurrent traffic (single queries, batches, streams, bad inputs,
// client disconnects, tiny deadlines) against a fully armed fault
// harness. The server must answer every surviving request with a
// well-formed response and quiesce with nothing leaked.
func TestChaosSurvival(t *testing.T) {
	t.Cleanup(fault.Reset)
	if err := fault.Configure(chaosSpec); err != nil {
		t.Fatal(err)
	}
	s, ts, cat := newChaosServer(t, Config{
		CacheBytes:         1 << 20,
		Workers:            4,
		DefaultParallelism: 2,
		MaxQueue:           32,
		ShareScans:         true,
		RequestTimeout:     5 * time.Second,
	})

	queries := []string{
		"/descendant::person",
		"/descendant::profile/descendant::education",
		"/descendant::increase/ancestor::bidder",
		"//item[descendant::mail]",
		"//keyword",
		"not a query ((",
	}
	docs := []string{"mem", "disk", "mem", "disk", "nope"}

	total := chaosRequests()
	const workers = 16
	var wg sync.WaitGroup
	errc := make(chan error, total)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 1337))
			client := &http.Client{}
			for i := 0; i < total/workers; i++ {
				if err := chaosRequest(rng, client, ts.URL, queries, docs); err != nil {
					errc <- fmt.Errorf("worker %d request %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	fault.Reset()
	assertQuiesced(t, s, cat)

	// The server must still answer cleanly once the chaos stops.
	resp, code := postQuery(t, ts.URL, QueryRequest{Doc: "mem", Query: "/descendant::person", NoCache: true})
	if code != http.StatusOK || len(resp.Results) != 1 || resp.Results[0].Error != "" {
		t.Fatalf("post-chaos query: code=%d results=%+v", code, resp.Results)
	}
	if fault.InjectedTotal() == 0 {
		t.Fatal("chaos run injected nothing — the harness was not exercised")
	}
}

// chaosRequest issues one randomized request and validates the
// response shape. Requests this test cancels itself may fail at the
// transport layer; that is expected and not an error.
func chaosRequest(rng *rand.Rand, client *http.Client, baseURL string, queries, docs []string) error {
	req := QueryRequest{
		Doc:     docs[rng.Intn(len(docs))],
		NoCache: rng.Intn(3) == 0,
	}
	if rng.Intn(4) == 0 {
		req.Limit = 1 + rng.Intn(50)
	}
	if rng.Intn(8) == 0 {
		req.TimeoutMs = 1 + rng.Intn(5)
	}
	if rng.Intn(4) == 0 {
		req.Options = &QueryOptions{Parallelism: rng.Intn(4)}
	}
	stream := rng.Intn(4) == 0
	if stream || rng.Intn(3) > 0 {
		req.Query = queries[rng.Intn(len(queries))]
	} else {
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			req.Queries = append(req.Queries, queries[rng.Intn(len(queries))])
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}

	ctx := context.Background()
	cancelled := rng.Intn(10) == 0
	var cancel context.CancelFunc
	if cancelled {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(10))*time.Millisecond)
	} else {
		ctx, cancel = context.WithTimeout(ctx, 30*time.Second)
	}
	defer cancel()

	endpoint := "/query"
	if stream {
		endpoint = "/stream"
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+endpoint, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(hreq)
	if err != nil {
		if cancelled || ctx.Err() != nil {
			return nil // our own disconnect: transport failure expected
		}
		return err
	}
	defer resp.Body.Close()
	if !wellFormedStatus[resp.StatusCode] {
		return fmt.Errorf("%s: unexpected status %d", endpoint, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		if cancelled || ctx.Err() != nil {
			return nil
		}
		return err
	}
	if stream {
		if resp.StatusCode != http.StatusOK {
			return nil // pre-stream failure already shape-checked via status
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		for {
			var c StreamChunk
			if err := dec.Decode(&c); err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("stream: bad NDJSON line: %v (body %q)", err, truncateBody(raw))
			}
		}
		return nil
	}
	var out QueryResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		var e map[string]any
		if err2 := json.Unmarshal(raw, &e); err2 == nil && e["error"] != nil {
			return nil // error envelope: well-formed
		}
		return fmt.Errorf("query: undecodable %d response %q", resp.StatusCode, truncateBody(raw))
	}
	for _, r := range out.Results {
		if r.Error == "" && r.Count != len(r.Nodes) {
			return fmt.Errorf("query: count %d disagrees with %d nodes: %+v", r.Count, len(r.Nodes), r)
		}
	}
	return nil
}

func truncateBody(b []byte) string {
	s := string(b)
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// TestOverloadSheds pins the admission contract end to end: with the
// single worker held and the queue at its bound, further requests are
// shed with 503 + Retry-After without growing the queue, /readyz
// reports saturation, and once the worker frees the queued requests
// complete normally.
func TestOverloadSheds(t *testing.T) {
	s, ts, _ := newChaosServer(t, Config{
		Workers:  1,
		MaxQueue: 2,
	})

	// Hold the whole worker budget so every request parks.
	if _, err := s.pool.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	queued := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/query", "application/json",
				strings.NewReader(`{"doc":"mem","query":"/descendant::person","noCache":true}`))
			if err != nil {
				queued <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			queued <- resp.StatusCode
		}()
	}
	waitFor(t, "two queued requests", func() bool { return s.pool.queueDepth() == 2 })

	// /readyz must report saturation while /healthz stays green.
	if code := getStatus(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz at saturation: %d, want 503", code)
	}
	if code := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz at saturation: %d, want 200", code)
	}

	// Past the bound: immediate 503 + Retry-After, queue depth pinned.
	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/query", "application/json",
			strings.NewReader(`{"doc":"mem","query":"/descendant::person","noCache":true}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("shed request %d: status %d, want 503", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("shed request %d: no Retry-After header", i)
		}
		if d := s.pool.queueDepth(); d > 2 {
			t.Fatalf("shed request grew the queue to %d", d)
		}
	}
	if s.pool.shedCount() < 5 {
		t.Fatalf("shedCount %d, want >= 5", s.pool.shedCount())
	}

	// Free the worker: the queued requests must complete normally.
	s.pool.release(1)
	for i := 0; i < 2; i++ {
		if code := <-queued; code != http.StatusOK {
			t.Fatalf("queued request finished with %d, want 200", code)
		}
	}
	if code := getStatus(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after drain: %d, want 200", code)
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestCancelledQueuedClientReleasesSlot pins the disconnected-client
// contract at the HTTP level: a client that gives up while queued
// leaves no units held and no queue slot behind.
func TestCancelledQueuedClientReleasesSlot(t *testing.T) {
	s, ts, cat := newChaosServer(t, Config{Workers: 1, MaxQueue: 8})
	if _, err := s.pool.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		body := strings.NewReader(`{"doc":"mem","query":"/descendant::person","noCache":true}`)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", body)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, "request queued", func() bool { return s.pool.queueDepth() == 1 })
	cancel()
	<-done
	waitFor(t, "queue slot abandoned", func() bool { return s.pool.queueDepth() == 0 })
	s.pool.release(1)
	assertQuiesced(t, s, cat)
}

// TestRequestTimeoutAnswers408 pins the deadline contract: a request
// whose timeoutMs expires (helped along by an injected admission
// stall) gets 408, the timeout metric moves, and nothing leaks.
func TestRequestTimeoutAnswers408(t *testing.T) {
	t.Cleanup(fault.Reset)
	if err := fault.Configure("pool.acquire:delay:d=250ms:n=1"); err != nil {
		t.Fatal(err)
	}
	s, ts, cat := newChaosServer(t, Config{Workers: 2, RequestTimeout: time.Minute})
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"doc":"mem","query":"/descendant::person","noCache":true,"timeoutMs":20}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("timed-out request: status %d, want 408", resp.StatusCode)
	}
	if s.timeouts.Load() == 0 {
		t.Fatal("timeout_queries_total did not move")
	}
	fault.Reset()
	assertQuiesced(t, s, cat)
}

// TestPanickingOperatorAnswers500 pins panic containment end to end:
// an injected panic in the streaming cursor costs that query a 500
// (with panics_recovered_total moving), and the very next request —
// same server, same pool — succeeds.
func TestPanickingOperatorAnswers500(t *testing.T) {
	t.Cleanup(fault.Reset)
	before := fault.Recovered()
	if err := fault.Configure("cursor.next:panic:n=1"); err != nil {
		t.Fatal(err)
	}
	s, ts, cat := newChaosServer(t, Config{Workers: 2})
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"doc":"mem","query":"/descendant::person","noCache":true,"limit":5}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked query: status %d, want 500", resp.StatusCode)
	}
	if fault.Recovered() <= before {
		t.Fatal("panics_recovered_total did not move")
	}

	fault.Reset()
	out, code := postQuery(t, ts.URL, QueryRequest{Doc: "mem", Query: "/descendant::person", NoCache: true, Limit: 5})
	if code != http.StatusOK || out.Results[0].Error != "" {
		t.Fatalf("query after recovered panic: code=%d results=%+v", code, out.Results)
	}
	assertQuiesced(t, s, cat)
}

// TestDrainFlipsReadyz pins the shutdown sequence: BeginDrain flips
// /readyz to 503 while /healthz and in-flight evaluation stay live.
func TestDrainFlipsReadyz(t *testing.T) {
	s, ts, _ := newChaosServer(t, Config{Workers: 2})
	if code := getStatus(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain: %d, want 200", code)
	}
	s.BeginDrain()
	if code := getStatus(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d, want 503", code)
	}
	if code := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain: %d, want 200", code)
	}
	// Draining refuses nothing by itself: in-flight and even new work
	// on the open listener still completes (the LB stops routing, the
	// server does not slam the door).
	if _, code := postQuery(t, ts.URL, QueryRequest{Doc: "mem", Query: "/descendant::person"}); code != http.StatusOK {
		t.Fatalf("query during drain: %d, want 200", code)
	}
}
