package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"staircase/internal/catalog"
	"staircase/internal/xmark"
)

// hitRecorder is an in-process ResponseWriter whose header map and body
// buffer are reused, so what a request allocates is the handler's own.
// onWrite, when set, runs before each body write.
type hitRecorder struct {
	hdr     http.Header
	status  int
	body    bytes.Buffer
	writes  int
	flushes int
	onWrite func()
}

func newHitRecorder() *hitRecorder { return &hitRecorder{hdr: http.Header{}} }

func (r *hitRecorder) Header() http.Header { return r.hdr }

func (r *hitRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *hitRecorder) Write(p []byte) (int, error) {
	if r.onWrite != nil {
		r.onWrite()
	}
	r.WriteHeader(http.StatusOK)
	r.writes++
	return r.body.Write(p)
}

func (r *hitRecorder) Flush() { r.flushes++ }

var queryURL = &url.URL{Path: "/query"}

// serveQuery posts body to /query in-process and returns the response.
func serveQuery(h http.Handler, rw *hitRecorder, body []byte) []byte {
	rw.status, rw.writes, rw.flushes = 0, 0, 0
	rw.body.Reset()
	h.ServeHTTP(rw, &http.Request{
		Method: http.MethodPost, URL: queryURL, Host: "test",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)),
	})
	return rw.body.Bytes()
}

// newHitServer serves one generated document "d" of 28 050 nodes.
func newHitServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	d, err := xmark.Generate(xmark.Config{SizeMB: 1.5, Seed: 5, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Catalog = catalog.New(0)
	if err := cfg.Catalog.AddDocument("d", d); err != nil {
		t.Fatal(err)
	}
	return New(cfg)
}

const (
	smallHit = `{"doc":"d","query":"/descendant::profile/descendant::education","limit":10}`
	largeHit = `{"doc":"d","query":"/descendant::node()"}`
)

var elapsedRE = regexp.MustCompile(`"elapsedNs":\d+`)

// stable blanks what differs between two answers to one request.
func stable(body []byte) string {
	s := elapsedRE.ReplaceAllString(string(body), `"elapsedNs":0`)
	return strings.Replace(s, `"cached":false`, `"cached":true`, 1)
}

// hitCost returns the objects and bytes one call of f allocates, each the
// smallest of five samples: a collection during a sample may empty the
// scratch pool and charge the next request a fresh scratch, and no test
// here should depend on when the collector runs.
func hitCost(f func()) (objects float64, perCall uint64) {
	objects, perCall = math.MaxFloat64, math.MaxUint64
	const runs = 50
	for range 5 {
		objects = min(objects, testing.AllocsPerRun(runs, f))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		perCall = min(perCall, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return objects, perCall
}

// TestHitAllocations bounds what a warm /query hit allocates: the same
// objects whether it returns ten nodes or twenty-eight thousand — the
// request (3, the test's own), the body limiter, the catalog handle,
// the query string and the Content-Type header value — and no byte of
// the response.
func TestHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	s := newHitServer(t, Config{CacheBytes: 64 << 20, ShareScans: true})
	h, rw := s.Handler(), newHitRecorder()
	objects := map[string]float64{}
	for name, body := range map[string][]byte{"small": []byte(smallHit), "large": []byte(largeHit)} {
		serveQuery(h, rw, body) // miss
		serveQuery(h, rw, body) // first hit: attaches the large result's encoding
		if name == "large" && bytes.Count(rw.body.Bytes(), []byte(",")) < 20000 {
			t.Fatalf("large hit returns only %d bytes", rw.body.Len())
		}
		n, per := hitCost(func() { serveQuery(h, rw, body) })
		if objects[name] = n; n > 7 || per > 1100 {
			t.Errorf("%s hit: %v objects and %d B per request, want <= 7 and <= 1100", name, n, per)
		}
	}
	if objects["small"] != objects["large"] {
		t.Errorf("a small hit allocates %v objects, a large one %v", objects["small"], objects["large"])
	}
	// The large hits copied the stored encoding (the small result is under
	// minEncodedNodes and has none), and /metrics says so.
	hits, enc := s.encodedHits.Load(), s.cache.EncodedBytes()
	h.ServeHTTP(rw, &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/metrics"}})
	want := fmt.Sprintf("xpathd_cache_encoded_bytes %d\nxpathd_cache_encoded_hits_total %d\n", enc, hits)
	if hits < 500 || enc < 100000 || !strings.Contains(rw.body.String(), want) {
		t.Errorf("encoded hits %d, encoded bytes %d, /metrics lacks %q", hits, enc, want)
	}
}

// TestHitBytesIdentical: miss, first hit (encoding attached) and later
// hits (encoding copied) answer with the same bytes, also when the result
// is too small to get an encoding or the encoding does not fit the budget
// and every hit encodes afresh.
func TestHitBytesIdentical(t *testing.T) {
	const text = `{"doc":"d","query":"/descendant::text()"}` // 10 231 nodes: 41 kB, 58 kB encoded
	for _, c := range []struct {
		budget int64
		query  string
		kept   bool
	}{
		{64 << 20, text, true},
		{16 * 50000, text, false},
		{64 << 20, `{"doc":"d","query":"/descendant::text()","limit":1023}`, false},
	} {
		s := newHitServer(t, Config{CacheBytes: c.budget})
		h, rw := s.Handler(), newHitRecorder()
		miss := stable(serveQuery(h, rw, []byte(c.query)))
		for i := range 3 {
			if hit := serveQuery(h, rw, []byte(c.query)); stable(hit) != miss || !bytes.Contains(hit, []byte(`"cached":true`)) {
				t.Fatalf("%+v: hit %d differs from the miss or is not one:\n%.200s\n%.200s", c, i, hit, miss)
			}
		}
		if enc := s.cache.EncodedBytes(); (enc > 0) != c.kept {
			t.Errorf("%+v: %d encoded bytes retained", c, enc)
		}
		if hits := s.encodedHits.Load(); (hits == 2) != c.kept {
			t.Errorf("%+v: %d encoded hits", c, hits)
		}
		if s.cache.Len() != 1 || s.cache.Bytes() > c.budget {
			t.Errorf("%+v: %d entries, %d bytes", c, s.cache.Len(), s.cache.Bytes())
		}
	}
}

// TestConcurrentFirstHits: eight goroutines hit one fresh entry at
// once; each may encode, exactly one encoding is retained, and all get
// the same bytes.
func TestConcurrentFirstHits(t *testing.T) {
	s := newHitServer(t, Config{CacheBytes: 64 << 20})
	h := s.Handler()
	want := stable(serveQuery(h, newHitRecorder(), []byte(largeHit)))
	bodies := make([]string, 8)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = stable(serveQuery(h, newHitRecorder(), []byte(largeHit)))
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if b != want {
			t.Fatalf("goroutine %d got a different body", i)
		}
	}
	e, ok := s.cache.Get(appendCacheKey(nil, "d", 1, mustCanon(t, s, "/descendant::node()"), 0))
	if !ok || !bytes.Equal(e.enc, appendNodes(nil, e.nodes)) {
		t.Fatalf("entry holds no (or a wrong) encoding: ok=%v len=%d", ok, len(e.enc))
	}
	if got, want := s.cache.EncodedBytes(), int64(len(e.enc)); got != want {
		t.Fatalf("%d encoded bytes charged, the one retained encoding has %d", got, want)
	}
}

func mustCanon(t testing.TB, s *Server, query string) string {
	t.Helper()
	h, err := s.cat.Open("d")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	p, err := s.prepare(h, query, s.defaultOpts, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	return p.Canon()
}

// TestCachedStreamReplayObeysRequest: the replay of a cached result
// flushes every chunk and stops between chunks once the request's
// context is done, with the usual error line and accounting.
func TestCachedStreamReplayObeysRequest(t *testing.T) {
	s := newHitServer(t, Config{CacheBytes: 64 << 20, ShareScans: true})
	h, err := s.cat.Open("d")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	p, err := s.prepare(h, "//x", s.defaultOpts, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int32, 200000)
	for i := range nodes {
		nodes[i] = int32(i)
	}
	s.cache.Put(string(appendCacheKey(nil, "d", h.Generation(), p.Canon(), 0)), nodes)
	const chunks = (200000 + 1023) / 1024
	replay := func(ctx context.Context, rw *hitRecorder) {
		var out, kb []byte
		lw := lineWriter{w: rw, flusher: rw, buf: &out}
		s.streamShared(&lw, ctx, h, p, 0, &kb)
	}

	rw := newHitRecorder()
	replay(context.Background(), rw)
	if rw.writes != chunks+1 || rw.flushes != chunks || !bytes.Contains(rw.body.Bytes(), []byte(`"done":true,"count":200000,"cached":true`)) {
		t.Fatalf("live replay: %d writes, %d flushes, tail %.80s", rw.writes, rw.flushes, rw.body.Bytes()[rw.body.Len()-80:])
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rw = newHitRecorder()
	replay(cancelled, rw)
	if got := rw.body.String(); rw.writes != 1 || got != "{\"error\":\"context canceled\"}\n" || s.cancels.Load() != 1 {
		t.Fatalf("cancelled replay: %d writes, cancels=%d, body %.100s", rw.writes, s.cancels.Load(), got)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rw = newHitRecorder()
	replay(expired, rw)
	if rw.writes != 1 || !bytes.Contains(rw.body.Bytes(), []byte("deadline exceeded")) || s.timeouts.Load() != 1 {
		t.Fatalf("expired replay: %d writes, timeouts=%d, body %.100s", rw.writes, s.timeouts.Load(), rw.body.Bytes())
	}

	// A client that goes away mid-replay stops it at the next chunk.
	midway, cancel := context.WithCancel(context.Background())
	defer cancel()
	rw = newHitRecorder()
	rw.onWrite = func() {
		if rw.writes == 2 {
			cancel()
		}
	}
	replay(midway, rw)
	if rw.writes != 4 || !bytes.HasSuffix(rw.body.Bytes(), []byte("{\"error\":\"context canceled\"}\n")) {
		t.Fatalf("replay cancelled during its third chunk made %d writes", rw.writes)
	}
}
