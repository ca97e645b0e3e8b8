package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"staircase/internal/catalog"
	"staircase/internal/engine"
	"staircase/internal/xmark"
)

// newShareServer builds a ShareScans server over one in-memory XMark
// document big enough that a predicate-heavy query runs long enough
// for concurrent clients to attach mid-flight.
func newShareServer(t testing.TB, sizeMB float64) (*Server, *httptest.Server, *engine.Engine) {
	t.Helper()
	cat := catalog.New(0)
	d, err := xmark.Generate(xmark.Config{SizeMB: sizeMB, Seed: 3, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddDocument("mem", d); err != nil {
		t.Fatal(err)
	}
	// 16MB: the sharded cache budgets per shard (total/16), and the big
	// coalescing fixture's answer must fit a shard so retirement sticks.
	s := New(Config{Catalog: cat, CacheBytes: 16 << 20, ShareScans: true})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, engine.New(d)
}

// slowShareQuery takes long enough (hundreds of ms on a few MB) that
// eight concurrently launched clients all land on one flight.
const slowShareQuery = "//*[not(descendant::text() = 'a')][not(descendant::text() = 'b')]" +
	"[not(descendant::text() = 'c')]"

// TestStreamShareScansCoalesce is the tentpole's server-level
// acceptance: N identical cold /stream clients execute the plan
// exactly once — one flight created, the other N-1 coalesced — and
// every client receives the byte-identical solo answer.
func TestStreamShareScansCoalesce(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-ms query")
	}
	s, ts, ref := newShareServer(t, 4)
	want, err := ref.EvalString(slowShareQuery, nil)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	bodies := make([][]int32, clients)
	terminal := make([]StreamChunk, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			chunks := postStream(t, ts.URL, QueryRequest{Doc: "mem", Query: slowShareQuery})
			if len(chunks) == 0 {
				t.Errorf("client %d: no output", i)
				return
			}
			last := chunks[len(chunks)-1]
			if !last.Done || last.Error != "" {
				t.Errorf("client %d: bad terminal chunk %+v", i, last)
				return
			}
			terminal[i] = last
			for _, c := range chunks[:len(chunks)-1] {
				bodies[i] = append(bodies[i], c.Nodes...)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	for i := range bodies {
		if !sameNodes(bodies[i], want.Nodes) {
			t.Fatalf("client %d: coalesced stream differs from solo (%d vs %d nodes)",
				i, len(bodies[i]), len(want.Nodes))
		}
	}
	created, coalesced, _ := s.ShareStats()
	if created != 1 {
		t.Fatalf("plan executed %d times, want exactly 1", created)
	}
	if coalesced != clients-1 {
		t.Fatalf("coalesced = %d, want %d", coalesced, clients-1)
	}
	nCoalesced := 0
	for i := range terminal {
		if terminal[i].Coalesced {
			nCoalesced++
		}
		if terminal[i].Count != len(want.Nodes) {
			t.Fatalf("client %d: count %d, want %d", i, terminal[i].Count, len(want.Nodes))
		}
	}
	if nCoalesced != clients-1 {
		t.Fatalf("%d terminal chunks report coalesced, want %d", nCoalesced, clients-1)
	}

	// The completed flight retired into the result cache: the next
	// stream replays it without touching the registry.
	chunks := postStream(t, ts.URL, QueryRequest{Doc: "mem", Query: slowShareQuery})
	last := chunks[len(chunks)-1]
	if !last.Cached {
		t.Fatalf("post-flight stream not served from cache: %+v", last)
	}
	if created, _, _ := s.ShareStats(); created != 1 {
		t.Fatalf("cache-hit stream created a flight (created=%d)", created)
	}
}

// TestQueryShareScansCoalesce: the same coalescing on POST /query —
// concurrent identical cache misses share one execution and report it.
func TestQueryShareScansCoalesce(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-ms query")
	}
	s, ts, ref := newShareServer(t, 4)
	want, err := ref.EvalString(slowShareQuery, nil)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	results := make([]QueryResult, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, code := postQuery(t, ts.URL, QueryRequest{Doc: "mem", Query: slowShareQuery})
			if code != http.StatusOK || len(resp.Results) != 1 {
				t.Errorf("client %d: status %d results %d", i, code, len(resp.Results))
				return
			}
			results[i] = resp.Results[0]
		}(i)
	}
	close(start)
	wg.Wait()

	for i := range results {
		if results[i].Error != "" {
			t.Fatalf("client %d: %s", i, results[i].Error)
		}
		if !sameNodes(results[i].Nodes, want.Nodes) {
			t.Fatalf("client %d: coalesced result differs from solo", i)
		}
	}
	created, coalesced, _ := s.ShareStats()
	if created != 1 {
		t.Fatalf("plan executed %d times, want exactly 1", created)
	}
	if coalesced != clients-1 {
		t.Fatalf("coalesced = %d, want %d", coalesced, clients-1)
	}

	// NoCache bypasses coalescing entirely: a fresh solo execution.
	resp, _ := postQuery(t, ts.URL, QueryRequest{Doc: "mem", Query: slowShareQuery, NoCache: true})
	if resp.Results[0].Coalesced {
		t.Fatal("NoCache request reported coalesced")
	}
	if created, _, _ := s.ShareStats(); created != 1 {
		t.Fatalf("NoCache request went through the registry (created=%d)", created)
	}
}

// TestQueryJoinsUnkeptFlight: a /query miss that coalesces onto a flight
// whose owner keeps no result (a /stream the cache refuses) gets no
// completed slice from the flight; it answers from the batches it was
// handed, and nothing retires into the cache.
func TestQueryJoinsUnkeptFlight(t *testing.T) {
	s, _, ref := newShareServer(t, 0.25)
	const q = "/descendant::*"
	want, err := ref.EvalString(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.cat.Open("mem")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	p, err := s.prepare(h, q, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	key := string(appendCacheKey(nil, "mem", h.Generation(), p.Canon(), 0))
	ctx := context.Background()
	owner, _ := s.joinFlight(p, key, 0, -1)
	defer owner.Close()
	got := []int32{}
	b, err := owner.Next(ctx) // take the wheel and produce the first batch
	if err != nil || b == nil {
		t.Fatalf("owner's first batch: %v, %v", b, err)
	}
	got = append(got, b...)

	type answer struct {
		nodes     []int32
		coalesced bool
		err       error
	}
	done := make(chan answer, 1)
	go func() {
		nodes, coalesced, err := s.sharedEval(ctx, p, key, 0)
		done <- answer{nodes, coalesced, err}
	}()
	for _, c, _ := s.ShareStats(); c == 0; _, c, _ = s.ShareStats() {
		time.Sleep(time.Millisecond)
	}
	for {
		b, err := owner.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		got = append(got, b...)
	}
	a := <-done
	if a.err != nil || !a.coalesced {
		t.Fatalf("sharedEval: coalesced %v, err %v", a.coalesced, a.err)
	}
	if !sameNodes(got, want.Nodes) || !sameNodes(a.nodes, want.Nodes) || cap(a.nodes) != len(a.nodes) {
		t.Fatalf("owner %d nodes, follower %d (cap %d), want %d", len(got), len(a.nodes), cap(a.nodes), len(want.Nodes))
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("a flight that keeps nothing retired %d cache entries", n)
	}
}

// TestShareScansLimitKeying: flights are keyed like cache entries —
// the limit is part of the key, so limited and full streams never
// share a buffer, and the limited stream is the solo prefix.
func TestShareScansLimitKeying(t *testing.T) {
	_, ts, ref := newShareServer(t, 0.25)
	const q = "/descendant::profile/descendant::education"
	want, err := ref.EvalString(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Nodes) < 3 {
		t.Fatalf("fixture too small: %d nodes", len(want.Nodes))
	}
	lim := len(want.Nodes) / 2

	var limGot []int32
	chunks := postStream(t, ts.URL, QueryRequest{Doc: "mem", Query: q, Limit: lim})
	last := chunks[len(chunks)-1]
	for _, c := range chunks[:len(chunks)-1] {
		limGot = append(limGot, c.Nodes...)
	}
	if !sameNodes(limGot, want.Nodes[:lim]) || !last.Truncated || last.Count != lim {
		t.Fatalf("limited shared stream: got %d nodes, summary %+v", len(limGot), last)
	}

	var full []int32
	chunks = postStream(t, ts.URL, QueryRequest{Doc: "mem", Query: q})
	last = chunks[len(chunks)-1]
	for _, c := range chunks[:len(chunks)-1] {
		full = append(full, c.Nodes...)
	}
	if !sameNodes(full, want.Nodes) || last.Truncated {
		t.Fatalf("full stream after limited one: got %d nodes, summary %+v", len(full), last)
	}

	// Replaying the limited key now comes from the cache, still the
	// exact prefix with the truncation flag.
	chunks = postStream(t, ts.URL, QueryRequest{Doc: "mem", Query: q, Limit: lim})
	last = chunks[len(chunks)-1]
	limGot = limGot[:0]
	for _, c := range chunks[:len(chunks)-1] {
		limGot = append(limGot, c.Nodes...)
	}
	if !sameNodes(limGot, want.Nodes[:lim]) || !last.Truncated || !last.Cached {
		t.Fatalf("cached limited stream: got %d nodes, summary %+v", len(limGot), last)
	}
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

// TestCursorHoldsOneWorkerUnit: a cursor execution (a shared flight, a
// limit query, a stream) holds one worker unit. With two units and one
// stream parked on a blocked writer, a second cold stream and cold
// limit queries must run at once instead of queueing behind it.
func TestCursorHoldsOneWorkerUnit(t *testing.T) {
	s, ts, cat := newChaosServer(t, Config{Workers: 2, ShareScans: true})

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
	for _, noCache := range []bool{false, true} { // shared flight, then RunLimit
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

// TestRemovedOptionIgnored: clients written against a request option
// the server no longer has (each entry of testdata/removed_option.json)
// keep working — the field is ignored, not rejected, on POST /query and
// GET /explain.
func TestRemovedOptionIgnored(t *testing.T) {
	raw, err := os.ReadFile("testdata/removed_option.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Removed []struct {
			Options      json.RawMessage `json:"options"`
			ExplainParam string          `json:"explainParam"`
		} `json:"removed"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Removed) == 0 {
		t.Fatal("no removed options listed")
	}
	_, ts, _ := newShareServer(t, 0.25)
	const q = "/descendant::open_auction/descendant::bidder"
	query := func(options string) []int32 {
		t.Helper()
		body := `{"doc":"mem","query":"` + q + `","noCache":true` + options + `}`
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("options %q: status %d", options, resp.StatusCode)
		}
		var out QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Results[0].Nodes
	}
	explain := func(extra string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/explain?doc=mem&q=" + q + extra)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explain%s: status %d %s", extra, resp.StatusCode, b)
		}
		return string(b)
	}
	wantNodes, wantPlan := query(""), explain("")
	for _, removed := range file.Removed {
		if got := query(`,"options":` + string(removed.Options)); !sameNodes(got, wantNodes) {
			t.Errorf("removed option %s changed the answer: %d vs %d nodes", removed.Options, len(got), len(wantNodes))
		}
		if got := explain(removed.ExplainParam); got != wantPlan {
			t.Errorf("removed option %s changed the plan:\n%s\nvs\n%s", removed.ExplainParam, got, wantPlan)
		}
	}
}

// TestShareMetricsExposed: the new counters appear on /metrics.
func TestShareMetricsExposed(t *testing.T) {
	_, ts, _ := newShareServer(t, 0.1)
	body, _ := json.Marshal(QueryRequest{Doc: "mem", Query: "/descendant::item"})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mresp.Body); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, metric := range []string{
		"xpathd_shared_flights_total",
		"xpathd_coalesced_queries_total",
		"xpathd_pace_car_handoffs_total",
		"xpathd_shared_flights_in_flight",
	} {
		if !strings.Contains(out, metric) {
			t.Fatalf("/metrics lacks %s:\n%s", metric, out)
		}
	}

	// The explain footer reports registry state in share-scans mode.
	eresp, err := http.Get(ts.URL + "/explain?doc=mem&q=" + "%2Fdescendant%3A%3Aitem")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	sb.Reset()
	if _, err := io.Copy(&sb, eresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "share-scans: on") ||
		!strings.Contains(sb.String(), "coalesced=") {
		t.Fatalf("/explain lacks share-scans footer:\n%s", sb.String())
	}
}
