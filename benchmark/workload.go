package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"staircase"
)

// workload describes one of the four benchmark workloads; everything
// that varies between them is data here.
type workload struct {
	name, why string
	// big selects the corpus several times larger than L2; otherwise
	// the one that fits it.
	big bool
	// server drives Server.Handler() in-process; otherwise the public
	// library API. cursor (library only) opens Plan.Cursor and pulls k
	// nodes instead of calling Plan.Run.
	server, cursor bool
	// passOps is the fixed operation count of one pass, sized so a pass
	// takes about half a second on the reference box (a second on
	// serve_adhoc, whose passes must stay large); smokeOps is the -smoke
	// size. Many short passes make the median of passes robust against
	// the slow stretches a shared machine has.
	passOps, smokeOps int
	// setups is how often the timed set-up runs: more often where it
	// is cheap.
	setups int
	// cacheBytes is the server's result-cache budget; prime makes the
	// set-up request every script query once, so that the measured
	// passes only ever hit the result cache.
	cacheBytes int64
	prime      bool
	// countStride thins the untimed count pass and replayStride the
	// traced run's query replays: every n-th distinct query takes part
	// (serve_adhoc has 6144 of them).
	countStride, replayStride int
	// queries builds the cycle of passOps-operation passes from the seed.
	queries func(rng *rand.Rand, c *corpus, passOps int) (*script, error)
}

// numCallers is the number of closed-loop goroutines issuing
// operations: 2 = GOMAXPROCS on every workload. With one caller on two
// Ps the other P idles and is woken on the measured path (GC workers,
// timers): on the reference box a lone caller ran the same library
// operations 30-40 % slower and with twice the pass-to-pass scatter.
const numCallers = 2

var workloads = []workload{
	{
		name: "axes_batch", big: true, setups: 4, passOps: 600, smokeOps: 400, countStride: 1, replayStride: 1,
		queries: func(rng *rand.Rand, _ *corpus, n int) (*script, error) { return newScript(axesBatchQueries(), n, rng) },
		why:     "the paper's experiment out of L2: prepared axis paths and document-wide scans through Plan.Run, so core kernels and plan/ops do nearly all the work and parser, planner and server none",
	},
	{
		name: "stream_first_k", big: true, cursor: true, setups: 4, passOps: 12000, smokeOps: 1000, countStride: 1, replayStride: 1,
		queries: func(rng *rand.Rand, _ *corpus, n int) (*script, error) {
			return newScript(streamFirstKQueries(), n, rng)
		},
		why: "the same plans through Plan.Cursor with k = 10 or 10000: cursor kernels and early termination, so a batch/cursor merge that helps one face and costs the other shows as a split from axes_batch",
	},
	{
		name: "serve_hot", big: true, server: true, setups: 15, passOps: 19200, smokeOps: 1920, cacheBytes: 256 << 20, prime: true, countStride: 1, replayStride: 1,
		queries: func(rng *rand.Rand, c *corpus, n int) (*script, error) {
			return newScript(serveHotQueries(rng, c), n, rng)
		},
		why: "64 hot queries resident in the result cache, POST /query in-process: request decode, cache look-ups, JSON encode and write are all of the cost, the kernels none",
	},
	{
		name: "serve_adhoc", server: true, setups: 25, passOps: 1024, smokeOps: 256, cacheBytes: 1 << 20, countStride: 8, replayStride: 24,
		queries: func(rng *rand.Rand, _ *corpus, n int) (*script, error) { return serveAdhocScript(rng, n) },
		why:     "6144 distinct value-predicate queries, more than every server cache holds, on a document that fits L2: parse, plan build/compile/order, index probes, cache insert/evict and the miss path dominate",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workload) corpusMB(smoke bool) float64 {
	switch {
	case w.big && smoke:
		return smokeBigMB
	case w.big:
		return bigMB
	case smoke:
		return smokeSmallMB
	}
	return smallMB
}

// buildScript generates the workload's cycle of passes from the seed.
func (w *workload) buildScript(seed int64, c *corpus, smoke bool) (*script, error) {
	ops := w.passOps
	if smoke {
		ops = w.smokeOps
	}
	return w.queries(rand.New(rand.NewSource(seed)), c, ops)
}

// caller is the per-goroutine state of a closed-loop load generator.
type caller struct {
	nodes []int32  // cursor operations copy their batches here
	rw    recorder // server operations write their response here
	tr    *tracer  // nil on untraced passes
	op    int32    // span of the operation in progress
	sink  int64    // keeps the calibration loop's result live
}

// target executes one operation and reports the time until the first
// result node reached the caller, the total time, and the digest of
// what came back. Only the call into the system is inside the clock;
// digesting happens after it stopped.
type target interface {
	run(q *query, qi int32, c *caller) (first, total time.Duration, got digest, err error)
}

// libTarget runs prepared plans of one document through the public API.
type libTarget struct {
	doc    *staircase.Document
	plans  []*staircase.Plan
	cursor bool
}

// probeQuery is the last step of every set-up: the first answered
// query. It touches the tag index and the value index, which the
// library builds on first use.
const probeQuery = "/descendant::open_auction[initial > 499.5]/bidder"

// setupLibrary is the library workloads' timed set-up: XML bytes →
// Load (shred) → tag and value index build → prepared plans.
func setupLibrary(c *corpus, s *script, cursor bool) (*libTarget, error) {
	d, err := c.load()
	if err != nil {
		return nil, err
	}
	if _, err := d.Query(probeQuery, nil); err != nil {
		return nil, err
	}
	t := &libTarget{doc: d, plans: make([]*staircase.Plan, len(s.queries)), cursor: cursor}
	for i := range s.queries {
		if t.plans[i], err = d.Prepare(s.queries[i].text, nil); err != nil {
			return nil, fmt.Errorf("prepare %s: %w", s.queries[i].text, err)
		}
	}
	return t, nil
}

func (t *libTarget) run(q *query, qi int32, c *caller) (first, total time.Duration, got digest, err error) {
	p := t.plans[qi]
	if !t.cursor {
		t0 := time.Now()
		sp := c.tr.begin("plan.Run", c.op)
		res, err := p.Run()
		c.tr.end(sp)
		total = time.Since(t0)
		if err != nil {
			return 0, 0, got, err
		}
		return total, total, digestOf(res.Nodes), nil
	}
	out := c.nodes[:0]
	t0 := time.Now()
	sp := c.tr.begin("plan.Cursor", c.op)
	cur, err := p.Cursor()
	c.tr.end(sp)
	if err != nil {
		return 0, 0, got, err
	}
	for len(out) < q.limit {
		sp := c.tr.begin("cursor.Next", c.op)
		b, err := cur.Next()
		c.tr.end(sp)
		if err != nil {
			cur.Close()
			return 0, 0, got, err
		}
		if b == nil {
			break
		}
		if first == 0 {
			first = time.Since(t0)
		}
		if room := q.limit - len(out); len(b) > room {
			b = b[:room]
		}
		out = append(out, b...) // a batch is only valid until the next Next
	}
	cur.Close()
	total = time.Since(t0)
	if first == 0 {
		first = total
	}
	return first, total, digestOf(out), nil
}

// httpTarget calls Server.Handler().ServeHTTP in-process: no sockets,
// whose cost (35–400 µs per loopback request) would bury a handler
// that takes 5–430 µs.
type httpTarget struct {
	h      http.Handler
	bodies [][]byte
}

const docName = "d"

var (
	urlQuery   = &url.URL{Path: "/query"}
	urlStream  = &url.URL{Path: "/stream"}
	urlMetrics = &url.URL{Path: "/metrics"}
	jsonHeader = http.Header{"Content-Type": {"application/json"}}
)

// requestBody is the JSON body of one query's request.
func requestBody(q *query, noCache bool) []byte {
	b := []byte(`{"doc":"` + docName + `","query":` + strconv.Quote(q.text))
	if q.limit > 0 {
		b = append(b, `,"limit":`+strconv.Itoa(q.limit)...)
	}
	if noCache {
		b = append(b, `,"noCache":true`...)
	}
	return append(b, '}')
}

// newServer is the part of the server set-up shared with the layer
// replays: SCJ2 file → Catalog.Register → NewServer. The document
// loads on the first request.
func newServer(c *corpus, cacheBytes int64) (http.Handler, error) {
	cat := staircase.NewCatalog(0)
	if err := cat.Register(docName, c.scj2); err != nil {
		return nil, err
	}
	srv := staircase.NewServer(staircase.ServerConfig{
		Catalog:    cat,
		CacheBytes: cacheBytes,
		ShareScans: true, // xpathd's default
	})
	return srv.Handler(), nil
}

// setupServer is the server workloads' timed set-up: SCJ2 file →
// Catalog.Register → NewServer → first-touch load → priming. serve_hot
// primes every hot query so the measured passes only ever hit;
// serve_adhoc primes nothing beyond the probe.
func setupServer(c *corpus, s *script, w *workload) (*httpTarget, error) {
	h, err := newServer(c, w.cacheBytes)
	if err != nil {
		return nil, err
	}
	t := &httpTarget{h: h, bodies: make([][]byte, len(s.queries))}
	for i := range s.queries {
		t.bodies[i] = requestBody(&s.queries[i], false)
	}
	var cl caller
	if _, _, err := t.post(urlQuery, requestBody(&query{text: probeQuery}, true), &cl); err != nil {
		return nil, fmt.Errorf("first-touch request: %w", err)
	}
	if w.prime {
		for i := range s.queries {
			if _, _, _, err := t.run(&s.queries[i], int32(i), &cl); err != nil {
				return nil, fmt.Errorf("priming: %w", err)
			}
		}
	}
	return t, nil
}

// post sends one request and returns the time to the first body write
// and the total handler time; the response stays in c.rw.
func (t *httpTarget) post(u *url.URL, body []byte, c *caller) (first, total time.Duration, err error) {
	method := http.MethodPost
	if body == nil {
		method = http.MethodGet
	}
	req := &http.Request{
		Method: method, URL: u, Host: "benchmark",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: jsonHeader, Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)),
	}
	c.rw.reset()
	c.rw.t0 = time.Now()
	sp := c.tr.begin("server.ServeHTTP", c.op)
	t.h.ServeHTTP(&c.rw, req)
	c.tr.end(sp)
	total = time.Since(c.rw.t0)
	if c.rw.status != http.StatusOK {
		return 0, 0, fmt.Errorf("%s: status %d: %.200s", u.Path, c.rw.status, c.rw.body.Bytes())
	}
	return c.rw.first, total, nil
}

func (t *httpTarget) run(q *query, qi int32, c *caller) (first, total time.Duration, got digest, err error) {
	u := urlQuery
	if q.stream {
		u = urlStream
	}
	if first, total, err = t.post(u, t.bodies[qi], c); err != nil {
		return 0, 0, got, err
	}
	if !q.stream {
		first = total // the response is one write, made when everything is known
	}
	got, err = digestBody(c.rw.body.Bytes())
	return first, total, got, err
}

// recorder is the in-process http.ResponseWriter. It is a Flusher like
// a real connection, so /stream takes the same branches.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
	t0     time.Time
	first  time.Duration // time of the first body write
}

func (r *recorder) reset() {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	r.status, r.first = 0, 0
	r.body.Reset()
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.first == 0 {
		r.first = time.Since(r.t0)
		r.WriteHeader(http.StatusOK)
	}
	return r.body.Write(p)
}

func (r *recorder) Flush() {}

var (
	nodesKey = []byte(`"nodes":[`)
	errorKey = []byte(`"error":`)
)

// digestBody folds every "nodes" array of a /query response or of the
// NDJSON lines of a /stream response, in order, without decoding the
// JSON around them. An "error" member anywhere fails the operation.
func digestBody(body []byte) (digest, error) {
	d := newDigest()
	if bytes.Contains(body, errorKey) {
		return d, fmt.Errorf("error in response: %.200s", body)
	}
	prev := int32(-1)
	one := make([]int32, 1)
	for {
		i := bytes.Index(body, nodesKey)
		if i < 0 {
			return d, nil
		}
		body = body[i+len(nodesKey):]
		v, digits := int32(0), false
		for len(body) > 0 {
			ch := body[0]
			body = body[1:]
			if ch >= '0' && ch <= '9' {
				v, digits = v*10+int32(ch-'0'), true
				continue
			}
			if digits {
				one[0] = v
				prev = d.add(one, prev)
				v, digits = 0, false
			}
			if ch == ']' {
				break
			}
		}
	}
}
