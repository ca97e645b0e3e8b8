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
	"strconv"
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

var (
	queryURL  = &url.URL{Path: "/query"}
	streamURL = &url.URL{Path: "/stream"}
)

// serveQuery posts body to /query in-process and returns the response.
func serveQuery(h http.Handler, rw *hitRecorder, body []byte) []byte {
	return servePost(h, rw, queryURL, body)
}

// servePost posts body to u in-process and returns the response.
func servePost(h http.Handler, rw *hitRecorder, u *url.URL, body []byte) []byte {
	return servePostCtx(context.Background(), h, rw, u, body)
}

// servePostCtx is servePost under the request context ctx.
func servePostCtx(ctx context.Context, h http.Handler, rw *hitRecorder, u *url.URL, body []byte) []byte {
	rw.status, rw.writes, rw.flushes = 0, 0, 0
	rw.body.Reset()
	r := &http.Request{
		Method: http.MethodPost, URL: u, Host: "test",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)),
	}
	h.ServeHTTP(rw, r.WithContext(ctx))
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
	s := newHitServer(t, Config{CacheBytes: 64 << 20})
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

// TestMissAllocations bounds what a cold miss of N nodes allocates: a
// stream a fixed 16 KB whatever N and the cache budget, since it keeps
// nothing beyond its current batch; a limited query, in bytes per
// result node, its batch copies and their one concatenation; an
// unlimited query only its result. Every limited request names its own
// limit, past the result, and the cache refuses the unlimited query, so
// each is a miss with the same N-node answer.
func TestMissAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	const query = "/descendant::*"
	countRE := regexp.MustCompile(`"count":(\d+)`)
	for _, c := range []struct {
		name    string
		u       *url.URL
		budget  int64
		perNode uint64 // 0: the miss is bounded by 16 KB, not per node
		limited bool
	}{
		{"stream, small cache", streamURL, 16 << 15, 0, true},
		{"stream, large cache", streamURL, 64 << 20, 0, true},
		{"query", queryURL, 64 << 20, 8, true},
		{"query, unlimited, refused by the cache", queryURL, 16 << 15, 4, false},
	} {
		s := newHitServer(t, Config{CacheBytes: c.budget})
		h, rw := s.Handler(), newHitRecorder()
		limit := 1 << 20
		miss := func() []byte {
			if !c.limited {
				return servePost(h, rw, c.u, fmt.Appendf(nil, `{"doc":"d","query":%q}`, query))
			}
			limit++
			return servePost(h, rw, c.u, fmt.Appendf(nil, `{"doc":"d","query":%q,"limit":%d}`, query, limit))
		}
		m := countRE.FindSubmatch(miss())
		if m == nil {
			t.Fatalf("%s: no count in the response", c.name)
		}
		n, _ := strconv.ParseUint(string(m[1]), 10, 64)
		if n < 15000 {
			t.Fatalf("%s: %d nodes, want a result of about 20 000", c.name, n)
		}
		per := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const runs = 4
			for range runs {
				miss()
			}
			runtime.ReadMemStats(&after)
			per = min(per, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		bound := c.perNode*n + 24<<10
		if c.perNode == 0 {
			bound = 16 << 10
		}
		if per > bound {
			t.Errorf("%s: a miss of %d nodes allocates %d B (%.1f B/node), want <= %d B",
				c.name, n, per, float64(per)/float64(n), bound)
		} else {
			t.Logf("%s: a miss of %d nodes allocates %d B (%.1f B/node)", c.name, n, per, float64(per)/float64(n))
		}
		if kept := s.cache.Len() > 0; kept != (c.u == queryURL && c.budget > 16<<15) {
			t.Errorf("%s: %d cache entries", c.name, s.cache.Len())
		}
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
	p, err := s.prepare(h, query, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	return p.Canon()
}

// TestLiveStreamObeysRequest: a stream flushes every batch, and once
// the request's context is done it stops at the next batch with one
// error line, counted as a cancel or a timeout.
func TestLiveStreamObeysRequest(t *testing.T) {
	s := newHitServer(t, Config{})
	stream := func(ctx context.Context, rw *hitRecorder) {
		servePostCtx(ctx, s.Handler(), rw, streamURL, []byte(`{"doc":"d","query":"/descendant::node()"}`))
	}

	rw := newHitRecorder()
	stream(context.Background(), rw)
	if rw.writes < 20 || rw.flushes != rw.writes-1 || !bytes.Contains(rw.body.Bytes(), []byte(`{"done":true,"count":`)) {
		t.Fatalf("live stream: %d writes, %d flushes, tail %.80s", rw.writes, rw.flushes, rw.body.Bytes()[max(0, rw.body.Len()-80):])
	}

	// A client that goes away mid-stream stops it at the next batch.
	midway, cancel := context.WithCancel(context.Background())
	defer cancel()
	rw = newHitRecorder()
	rw.onWrite = func() {
		if rw.writes == 2 {
			cancel()
		}
	}
	stream(midway, rw)
	if rw.writes != 4 || !bytes.HasSuffix(rw.body.Bytes(), []byte("}\n{\"error\":\"context canceled\"}\n")) || s.cancels.Load() != 1 {
		t.Fatalf("stream cancelled during its third batch: %d writes, cancels=%d, tail %.80s",
			rw.writes, s.cancels.Load(), rw.body.Bytes()[max(0, rw.body.Len()-80):])
	}

	// So does a deadline that expires mid-stream.
	expiring, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	rw = newHitRecorder()
	rw.onWrite = func() {
		if rw.writes == 2 {
			<-expiring.Done()
		}
	}
	stream(expiring, rw)
	if rw.writes != 4 || !bytes.HasSuffix(rw.body.Bytes(), []byte("deadline exceeded\"}\n")) || s.timeouts.Load() != 1 {
		t.Fatalf("stream past its deadline: %d writes, timeouts=%d, tail %.80s",
			rw.writes, s.timeouts.Load(), rw.body.Bytes()[max(0, rw.body.Len()-80):])
	}
}
