// Package server exposes the catalog and the plan executor as a
// long-lived HTTP query service — the front door of cmd/xpathd. It is
// the layer the paper's framing implies but never builds: the
// staircase join as the axis-step workhorse *inside* a system
// answering many concurrent queries over many documents.
//
// The design leans on one fact: documents are immutable after
// shredding, so query evaluation needs no locking at all — concurrency
// control collapses into catalog lookup. Three shared structures do the
// rest:
//
//   - a prepared-plan LRU (physical plan once per document generation
//     × query, compiled with the catalog's plan options) that admits a
//     plan on its key's second request only, so queries asked once
//     parse, rewrite and optimize afresh and leave nothing behind;
//   - a sharded LRU result cache keyed on (doc, generation, canonical
//     optimized-plan string) — equivalent query texts compile to the
//     same canonical plan and share one entry; see
//     docs/ARCHITECTURE.md for the key design;
//   - a FIFO worker semaphore holding one unit per running execution,
//     so a burst of queries cannot oversubscribe the machine.
//
// Every POST /query item takes one path: prepare, look the result up
// (unless the request says noCache), acquire a unit, run the plan once,
// and store the result. Concurrent identical misses each run the plan.
// POST /stream skips the cache: prepare, acquire a unit, and write each
// batch of the plan's cursor as it comes.
//
// Endpoints: POST /query (single or batched queries against one
// document), POST /stream (one query, results as NDJSON batches),
// GET /explain, GET /docs, GET /healthz (liveness), GET /readyz
// (readiness: 503 while draining or at the admission bound),
// GET /metrics.
//
// Request contexts propagate into plan execution: a client disconnect
// or server timeout cancels the running cursors between batches, so
// abandoned queries release their worker-semaphore unit instead of
// scanning to completion. Limited queries (POST /query or POST /stream
// with limit=N) evaluate through the plan's streaming executor — the
// staircase kernels stop after the N-th result — and the result cache
// keys truncated /query results on (canonical plan, limit) so they
// never collide with full results.
//
// Failure model. The server survives overload and misbehaving
// operators rather than merely performing well on the happy path:
//
//   - Admission control: the worker semaphore's wait queue is bounded
//     (Config.MaxQueue). At the bound, new work is shed immediately
//     with 503 + Retry-After instead of queueing unboundedly, and a
//     queued waiter whose client disconnects abandons its slot without
//     ever holding a unit.
//   - Deadlines: Config.RequestTimeout bounds every request; a request
//     may lower (never raise) it with timeoutMs. Expiry surfaces as
//     408 and cancels the running cursors between batches.
//   - Panic containment: evaluation is recovered at every boundary —
//     per batch item and per stream batch — so a panicking operator
//     costs one query a 500, not the process, and its semaphore unit
//     releases.
package server

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"staircase/internal/catalog"
	"staircase/internal/fault"
	"staircase/internal/plan"
)

// Config configures a Server.
type Config struct {
	// Catalog provides the named documents. Required.
	Catalog *catalog.Catalog
	// CacheBytes is the result-cache budget in bytes; <= 0 disables the
	// cache.
	CacheBytes int64
	// Workers is the shared worker budget for query evaluation; <= 0
	// defaults to GOMAXPROCS.
	Workers int
	// MaxBatch caps the number of queries in one POST /query request;
	// <= 0 defaults to 256.
	MaxBatch int
	// RequestTimeout bounds every request's evaluation; <= 0 means no
	// server-side deadline. A request may lower (never raise) it with
	// timeoutMs. Expiry surfaces as 408.
	RequestTimeout time.Duration
	// MaxQueue bounds the worker semaphore's admission queue: past
	// MaxQueue parked waiters, new work is shed with 503 + Retry-After.
	// 0 queues unboundedly (the pre-admission-control behaviour);
	// < 0 picks an automatic bound of 8× the worker budget.
	MaxQueue int
	// MaxBodyBytes caps request bodies on POST /query and POST /stream;
	// <= 0 defaults to 1 MiB.
	MaxBodyBytes int64
}

// defaultMaxBodyBytes is the request-body cap applied when
// Config.MaxBodyBytes is unset.
const defaultMaxBodyBytes = 1 << 20

// statusClientClosed is the nginx-convention code for "client closed
// request": the client disconnected while queued or evaluating, so
// there is nobody to write a response to. Used for metrics and batch
// items; never written as an HTTP status.
const statusClientClosed = 499

// Server is the HTTP query service. Safe for concurrent use.
type Server struct {
	cfg   Config
	cat   *catalog.Catalog
	cache *resultCache
	pool  *wsem
	start time.Time

	// The result-cache fast path sits behind prepare(), so a plan hit
	// takes preparedMu shared — concurrent warm requests do not
	// serialise, and the look-up reads the request's pooled key bytes
	// without building a string — and skips the LRU recency bump (an
	// approximation the 4096-entry budget tolerates).
	preparedMu  sync.RWMutex
	prepared    map[string]*list.Element
	preparedLL  *list.List        // front = most recent; values are *preparedEntry
	preparedGen map[string]uint64 // latest generation seen per document
	// seen remembers the hashes of the last maxPrepared distinct keys
	// that missed, so a plan is cached only on its key's second request;
	// both structures are pointer-free, the collector marks neither.
	seen     map[uint64]struct{}
	seenRing []uint64 // ring of the hashes in seen, oldest at seenNext
	seenNext int
	seed     maphash.Seed

	queries     atomic.Int64
	batches     atomic.Int64
	streams     atomic.Int64
	cacheHits   atomic.Int64
	encodedHits atomic.Int64 // hits that copied the entry's encoding
	cacheMisses atomic.Int64
	planHits    atomic.Int64
	planMisses  atomic.Int64
	errors      atomic.Int64
	cancels     atomic.Int64
	timeouts    atomic.Int64
	draining    atomic.Bool
}

type preparedEntry struct {
	key string
	doc string
	gen uint64
	p   *plan.Plan
}

// maxPrepared bounds the prepared-plan LRU; distinct (document
// generation, query) pairs beyond this evict the
// least recently used plan. It also bounds how far apart a key's two
// requests may be for its plan to be admitted.
const maxPrepared = 4096

// New returns a server over the catalog.
func New(cfg Config) *Server {
	if cfg.Catalog == nil {
		panic("server: Config.Catalog is required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	maxQueue := cfg.MaxQueue
	if maxQueue < 0 {
		maxQueue = 8 * workers
	}
	return &Server{
		cfg:         cfg,
		cat:         cfg.Catalog,
		cache:       newResultCache(cfg.CacheBytes),
		pool:        newWsem(workers, maxQueue),
		start:       time.Now(),
		prepared:    make(map[string]*list.Element),
		preparedLL:  list.New(),
		preparedGen: make(map[string]uint64),
		seen:        make(map[uint64]struct{}),
		seenRing:    make([]uint64, 0, maxPrepared),
		seed:        maphash.MakeSeed(),
	}
}

// Handler returns the HTTP routing table, wrapped in a panic-recovery
// middleware: a panic that escapes a handler (e.g. out of a catalog
// load) becomes a well-formed 500 instead of a dropped connection.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /stream", s.handleStream)
	mux.HandleFunc("GET /explain", s.handleExplain)
	mux.HandleFunc("GET /docs", s.handleDocs)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.recoverPanics(mux)
}

// recoverPanics is the handler-goroutine safety net. Evaluation paths
// recover closer to the panic (evalOne, the stream loop) so they can
// release resources and answer precisely; this middleware catches what escapes anyway — net/http
// would only log it and sever the connection, which a load balancer
// cannot tell apart from a crash.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				// Best effort: if the handler already wrote headers the
				// status is lost, but the connection still ends cleanly.
				s.fail(w, http.StatusInternalServerError, "%v", fault.NewPanicError(v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// BeginDrain flips /readyz to 503 so load balancers stop routing new
// work here; in-flight requests (including streams) keep running.
// xpathd calls it on SIGINT/SIGTERM before http.Server.Shutdown, which
// then waits for the in-flight handlers to finish.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// maxBody is the request-body cap for the JSON endpoints.
func (s *Server) maxBody() int64 {
	if s.cfg.MaxBodyBytes > 0 {
		return s.cfg.MaxBodyBytes
	}
	return defaultMaxBodyBytes
}

// requestCtx derives the evaluation context: the client's context
// bounded by the server default timeout, optionally lowered — never
// raised — by the request's timeoutMs.
func (s *Server) requestCtx(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if timeoutMs > 0 {
		rd := time.Duration(timeoutMs) * time.Millisecond
		if d <= 0 || rd < d {
			d = rd
		}
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// lazyCtx derives a /query request's evaluation context — deadline and
// fault tag — on first use, so a request the result cache answers never
// builds one. Batch items share it across goroutines.
type lazyCtx struct {
	s         *Server
	r         *http.Request
	timeoutMs int
	once      sync.Once
	ctx       context.Context
	cancel    context.CancelFunc
}

func (l *lazyCtx) get() context.Context {
	l.once.Do(func() {
		l.ctx, l.cancel = l.s.requestCtx(l.r, l.timeoutMs)
		l.ctx = fault.WithTag(l.ctx, "query")
	})
	return l.ctx
}

// done releases the context if the request derived one; the handler
// calls it after every item has returned.
func (l *lazyCtx) done() {
	if l.cancel != nil {
		l.cancel()
	}
}

// reqState is the scratch of one POST /query or POST /stream request,
// pooled so that a warm hit allocates none of it.
type reqState struct {
	req     QueryRequest
	body    bytes.Buffer  // request body
	queries []string      // Query, then Queries
	results []QueryResult // one per query
	key     []byte        // plan and cache key of the inline query
	out     []byte        // encoded response (/stream: one line)
	lc      lazyCtx
	wg      sync.WaitGroup // batch items past the first
}

var reqStates = sync.Pool{New: func() any { return new(reqState) }}

// maxPooledBuf is the largest buffer a reqState keeps between requests;
// one huge response must not pin its encoding in the pool.
const maxPooledBuf = 1 << 20

// release returns st to the pool without the references it picked up:
// result slices belong to the cache, strings to the request.
func (st *reqState) release() {
	clear(st.queries)
	clear(st.results)
	st.req, st.lc = QueryRequest{}, lazyCtx{}
	if st.body.Cap() > maxPooledBuf {
		st.body = bytes.Buffer{}
	}
	if cap(st.out) > maxPooledBuf {
		st.out = nil
	}
	reqStates.Put(st)
}

// readRequest reads and decodes the body of a JSON endpoint into
// st.req, answering 400 itself when it cannot.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, st *reqState) bool {
	st.body.Reset()
	_, err := st.body.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBody()))
	if err == nil {
		err = decodeRequest(st.body.Bytes(), &st.req)
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// QueryRequest is the POST /query body. Query and Queries may be
// combined; all run against the one named document.
type QueryRequest struct {
	Doc     string   `json:"doc"`
	Query   string   `json:"query,omitempty"`
	Queries []string `json:"queries,omitempty"`
	// NoCache bypasses the result cache on POST /query (no lookup, no
	// store); POST /stream never uses the cache.
	NoCache bool `json:"noCache,omitempty"`
	// Limit stops each query after its first N result nodes via the
	// streaming executor (the join kernels never scan past what the
	// limit needs); 0 returns all nodes. Limited /query results are
	// cached under (canonical plan, limit).
	Limit int `json:"limit,omitempty"`
	// TimeoutMs lowers the server's request timeout for this request;
	// it can never raise it. 0 keeps the server default.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// QueryResult is the outcome of one query of a batch.
type QueryResult struct {
	Query string `json:"query"`
	// Count is the number of nodes returned (under a limit: at most
	// the limit — the full cardinality is deliberately not computed).
	Count int     `json:"count"`
	Nodes []int32 `json:"nodes"`
	// Truncated reports that the limit stopped the evaluation while
	// further results may exist.
	Truncated bool   `json:"truncated,omitempty"`
	Cached    bool   `json:"cached"`
	ElapsedNs int64  `json:"elapsedNs"`
	Error     string `json:"error,omitempty"`
	// status classifies the error for HTTP propagation: 0 on success,
	// else one of 400/408/499/500/503. Single-query requests surface it
	// as the response code; batches stay 200 with per-item errors.
	status int
	// enc, when set, is the JSON text of Nodes from the result cache;
	// the response copies it instead of encoding Nodes.
	enc []byte
}

// QueryResponse is the POST /query response. Results align with the
// request's query order (Query first, then Queries).
type QueryResponse struct {
	Doc        string        `json:"doc"`
	Generation uint64        `json:"generation"`
	Results    []QueryResult `json:"results"`
}

// appendCacheKey appends the result-cache key built from the canonical
// optimized-plan string. Document generation guards against
// reload-after-eviction serving stale results; the canonical plan
// covers the operator tree and, by construction, collapses equivalent
// query texts ("//a/b" vs its unabbreviated spelling) onto one entry.
// A limit joins the key:
// truncated results must never collide with full ones or with other
// limits.
func appendCacheKey(dst []byte, docName string, gen uint64, canon string, limit int) []byte {
	dst = append(dst, docName...)
	dst = append(dst, 0)
	dst = strconv.AppendUint(dst, gen, 10)
	dst = append(dst, 0)
	dst = append(dst, canon...)
	if limit > 0 {
		dst = append(dst, "\x00limit="...)
		dst = strconv.AppendInt(dst, int64(limit), 10)
	}
	return dst
}

// appendPreparedKey appends the key of a physical plan: document,
// generation and query text. The plan options are the catalog's, one
// set per document, so they need no place in the key.
func appendPreparedKey(dst []byte, docName string, gen uint64, query string) []byte {
	dst = append(dst, docName...)
	dst = append(dst, 0)
	dst = strconv.AppendUint(dst, gen, 10)
	dst = append(dst, 0)
	return append(dst, query...)
}

// prepare returns the physical plan for (document, query).
// A miss parses, rewrites and optimizes the query afresh; the plan is
// kept, per document generation, only when its key was already
// requested within the last maxPrepared distinct keys — a query asked
// once costs no cache entry, and a recurring one is served from the LRU
// from its third request on. The key is built in *kb, scratch the
// caller may reuse afterwards.
func (s *Server) prepare(h *catalog.Handle, query string, kb *[]byte) (*plan.Plan, error) {
	*kb = appendPreparedKey((*kb)[:0], h.Name(), h.Generation(), query)
	s.preparedMu.RLock()
	el, ok := s.prepared[string(*kb)]
	s.preparedMu.RUnlock()
	if ok {
		// The key embeds the generation, so a fast hit can never serve
		// a stale document copy.
		s.planHits.Add(1)
		return el.Value.(*preparedEntry).p, nil
	}
	key := string(*kb)
	s.preparedMu.Lock()
	s.dropStalePlansLocked(h.Name(), h.Generation())
	if el, ok := s.prepared[key]; ok {
		s.preparedLL.MoveToFront(el)
		p := el.Value.(*preparedEntry).p
		s.preparedMu.Unlock()
		s.planHits.Add(1)
		return p, nil
	}
	admit := s.recurredLocked(maphash.String(s.seed, key))
	s.preparedMu.Unlock()
	s.planMisses.Add(1)

	p, err := plan.Prepare(h.Env(), query, h.PlanOptions()) // optimize outside the lock
	if err != nil || !admit {
		return p, err
	}

	s.preparedMu.Lock()
	defer s.preparedMu.Unlock()
	if el, ok := s.prepared[key]; ok { // raced: keep the first
		s.preparedLL.MoveToFront(el)
		return el.Value.(*preparedEntry).p, nil
	}
	entry := &preparedEntry{key: key, doc: h.Name(), gen: h.Generation(), p: p}
	s.prepared[key] = s.preparedLL.PushFront(entry)
	for len(s.prepared) > maxPrepared {
		el := s.preparedLL.Back()
		e := s.preparedLL.Remove(el).(*preparedEntry)
		delete(s.prepared, e.key)
	}
	return p, nil
}

// recurredLocked reports whether a missed key's hash is among the last
// maxPrepared distinct ones, and remembers it if not, forgetting the
// oldest. A key that recurs further apart than that would have left the
// LRU before its next use anyway; a hash collision merely admits a plan
// early.
func (s *Server) recurredLocked(h uint64) bool {
	if _, ok := s.seen[h]; ok {
		return true
	}
	if len(s.seenRing) < maxPrepared {
		s.seenRing = append(s.seenRing, h)
	} else {
		delete(s.seen, s.seenRing[s.seenNext])
		s.seenRing[s.seenNext] = h
		s.seenNext = (s.seenNext + 1) % maxPrepared
	}
	s.seen[h] = struct{}{}
	return false
}

// dropStalePlansLocked evicts every cached plan of a document whose
// generation is older than the one now resident. A prepared plan
// holds its document (encoding + index) alive, so without this a
// catalog reload would leave up to maxPrepared stale plans pinning
// the previous copy in memory alongside the new one. (Plans of a
// document that was evicted and never reopened age out of the LRU
// normally; until then they pin that document — the prepared cache
// trades that bounded residency for not re-optimizing on every
// request.)
func (s *Server) dropStalePlansLocked(doc string, gen uint64) {
	if s.preparedGen[doc] == gen {
		return
	}
	s.preparedGen[doc] = gen
	for el := s.preparedLL.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*preparedEntry); e.doc == doc && e.gen != gen {
			s.preparedLL.Remove(el)
			delete(s.prepared, e.key)
		}
		el = next
	}
}

// classifyEvalErr fills a result's error and status from an
// evaluation failure: shed → 503, deadline → 408, client gone → 499
// (each counted), anything else — injected faults, recovered panics,
// corrupt state — → 500.
func (s *Server) classifyEvalErr(ctx context.Context, res *QueryResult, err error) {
	res.Error = err.Error()
	switch {
	case errors.Is(err, errShed):
		res.status = http.StatusServiceUnavailable
	case ctx != nil && errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.timeouts.Add(1)
		res.status = http.StatusRequestTimeout
	case ctx != nil && errors.Is(ctx.Err(), context.Canceled):
		s.cancels.Add(1)
		res.status = statusClientClosed
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		res.status = http.StatusRequestTimeout
	default:
		res.status = http.StatusInternalServerError
	}
}

// evalOne answers a single query of a batch: prepare (plan caches),
// result cache on the canonical plan (extended with the limit for
// truncated results), then execute under the worker budget. ctx
// cancellation (request timeout, client disconnect) stops the
// execution between batches. A panic anywhere below — batch items run
// on their own goroutines, where an uncaught panic kills the process —
// is recovered into a 500-classified result; the deferred release
// keeps the worker budget balanced on that path.
func (s *Server) evalOne(lc *lazyCtx, h *catalog.Handle, query string, noCache bool, limit int, kb *[]byte) (res QueryResult) {
	start := time.Now()
	res = QueryResult{Query: query}
	defer func() {
		if v := recover(); v != nil {
			res.Error = fault.NewPanicError(v).Error()
			res.status = http.StatusInternalServerError
			res.ElapsedNs = time.Since(start).Nanoseconds()
		}
	}()
	p, err := s.prepare(h, query, kb)
	if err != nil {
		res.Error = err.Error()
		res.status = http.StatusBadRequest
		return res
	}
	*kb = appendCacheKey((*kb)[:0], h.Name(), h.Generation(), p.Canon(), limit)
	if !noCache {
		if e, ok := s.cache.Get(*kb); ok {
			s.cacheHits.Add(1)
			res.Nodes = e.nodes
			if res.enc = e.enc; res.enc != nil {
				s.encodedHits.Add(1)
			} else if len(e.nodes) >= minEncodedNodes {
				// First hit: the entry has proved worth re-reading, so
				// it gets its encoding now rather than at insert.
				res.enc = s.cache.Attach(*kb, e.nodes, appendNodes(nil, e.nodes))
			}
			res.Count = len(e.nodes)
			// A stored limited result of exactly `limit` nodes may have
			// more behind it — the same conservative report RunLimit
			// itself gives at the boundary.
			res.Truncated = limit > 0 && len(e.nodes) >= limit
			res.Cached = true
			res.ElapsedNs = time.Since(start).Nanoseconds()
			return res
		}
		s.cacheMisses.Add(1)
	}
	// Only a miss needs the request's context.
	ctx := lc.get()
	if err := s.pool.acquire(ctx); err != nil {
		res.ElapsedNs = time.Since(start).Nanoseconds()
		s.classifyEvalErr(ctx, &res, err)
		return res
	}
	// Deferred (not inline after eval) so a panicking operator cannot
	// leak its unit past the recover above.
	defer s.pool.release()
	r, err := p.RunLimitRoot(ctx, limit) // limit <= 0 runs the whole plan
	elapsed := time.Since(start)
	h.RecordQuery(elapsed)
	res.ElapsedNs = elapsed.Nanoseconds()
	if err != nil {
		s.classifyEvalErr(ctx, &res, err)
		return res
	}
	res.Nodes = r.Nodes
	res.Count = len(r.Nodes)
	res.Truncated = r.Truncated
	if !noCache {
		s.cache.Put(string(*kb), r.Nodes)
	}
	return res
}

// limitCursor caps a /stream cursor at the request's limit: the
// streaming counterpart of RunLimit. It reports exhaustion at the cap,
// so the kernels never scan past what the limit needs.
type limitCursor struct {
	cur  interface{ Next() ([]int32, error) }
	left int
}

func (l *limitCursor) Next() ([]int32, error) {
	if l.left <= 0 {
		return nil, nil
	}
	b, err := l.cur.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if len(b) > l.left {
		b = b[:l.left]
	}
	l.left -= len(b)
	return b, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	st := reqStates.Get().(*reqState)
	defer st.release()
	if !s.readRequest(w, r, st) {
		return
	}
	req := &st.req
	queries := st.queries[:0]
	if req.Query != "" {
		queries = append(queries, req.Query)
	}
	queries = append(queries, req.Queries...)
	st.queries = queries
	if len(queries) == 0 {
		s.fail(w, http.StatusBadRequest, "no query given")
		return
	}
	if len(queries) > s.cfg.MaxBatch {
		s.fail(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(queries), s.cfg.MaxBatch)
		return
	}
	h, err := s.cat.Open(req.Doc)
	if err != nil {
		s.fail(w, openStatus(err), "%v", err)
		return
	}
	defer h.Close()

	st.lc = lazyCtx{s: s, r: r, timeoutMs: req.TimeoutMs}
	defer st.lc.done()

	results := slices.Grow(st.results[:0], len(queries))[:len(queries)]
	st.results = results
	// Batch items past the first are independent goroutines (the worker
	// semaphore inside evalOne bounds how many actually evaluate at
	// once); the first runs here, so a one-query request spawns none —
	// a goroutine and a wake-up would cost more than a small cache hit.
	for i, q := range queries[1:] {
		st.wg.Add(1)
		go func(i int, q string) {
			defer st.wg.Done()
			results[i] = s.evalOne(&st.lc, h, q, req.NoCache, req.Limit, new([]byte))
		}(i+1, q)
	}
	results[0] = s.evalOne(&st.lc, h, queries[0], req.NoCache, req.Limit, &st.key)
	st.wg.Wait()

	s.queries.Add(int64(len(queries)))
	if len(queries) > 1 {
		s.batches.Add(1)
	}
	for i := range results {
		res := &results[i]
		if res.Error != "" {
			s.errors.Add(1)
		}
		if res.Nodes == nil {
			res.Nodes = []int32{} // marshal as [] rather than null
		}
	}
	// A single-query request surfaces its item's failure as the HTTP
	// status (503 carries Retry-After so clients back off; a gone
	// client gets nothing). Batches stay 200 with per-item errors: a
	// shed or timed-out item must not mask its siblings' results.
	code := http.StatusOK
	if len(queries) == 1 && results[0].status != 0 {
		code = results[0].status
		if code == statusClientClosed {
			return
		}
		if code == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
	}
	st.out = appendQueryResponse(st.out[:0], &QueryResponse{Doc: h.Name(), Generation: h.Generation(), Results: results})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(st.out)
}

// StreamChunk is one NDJSON line of a POST /stream response: either a
// batch of result nodes, the terminal summary, or an error.
type StreamChunk struct {
	Nodes []int32 `json:"nodes,omitempty"`
	// Done marks the terminal line; Count is the total nodes streamed
	// and Truncated whether a limit stopped the stream early.
	Done      bool   `json:"done,omitempty"`
	Count     int    `json:"count,omitempty"`
	Truncated bool   `json:"truncated,omitempty"`
	ElapsedNs int64  `json:"elapsedNs,omitempty"`
	Error     string `json:"error,omitempty"`
}

// handleStream answers POST /stream: one query, evaluated through the
// streaming cursor executor, with each result batch written as one
// NDJSON line as soon as the kernels produce it. The stream never reads
// or writes the result cache: the join yields its result in document
// order in one pass, so nothing is kept beyond the current batch. The
// stream holds one worker-budget unit for its whole duration; a client
// disconnect cancels the request context, the cursor stops between
// batches, and the unit releases.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	st := reqStates.Get().(*reqState)
	defer st.release()
	if !s.readRequest(w, r, st) {
		return
	}
	req := &st.req
	if req.Query == "" || len(req.Queries) > 0 {
		s.fail(w, http.StatusBadRequest, "POST /stream takes exactly one query")
		return
	}
	h, err := s.cat.Open(req.Doc)
	if err != nil {
		s.fail(w, openStatus(err), "%v", err)
		return
	}
	defer h.Close()
	p, err := s.prepare(h, req.Query, &st.key)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	ctx = fault.WithTag(ctx, "stream")
	lw := lineWriter{w: w, buf: &st.out}
	lw.flusher, _ = w.(http.Flusher)
	start := time.Now()
	s.streams.Add(1)
	s.queries.Add(1)
	// An error answered before the first line replaces the header.
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := s.pool.acquire(ctx); err != nil {
		s.failEval(w, ctx, err)
		return
	}
	defer s.pool.release()
	cur, err := p.CursorRoot(ctx)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cur.Close()
	var next interface{ Next() ([]int32, error) } = cur
	if req.Limit > 0 {
		next = &limitCursor{cur: cur, left: req.Limit}
	}
	count := 0
	for {
		b, err := safeStreamNext(next)
		if err != nil {
			s.streamError(&lw, ctx, err)
			return
		}
		if b == nil {
			break
		}
		count += len(b)
		lw.sendNodes(b)
	}
	// The terminal line. Reaching the limit reports truncated: more may
	// exist.
	elapsed := time.Since(start)
	h.RecordQuery(elapsed)
	lw.send(&StreamChunk{
		Done:      true,
		Count:     count,
		Truncated: req.Limit > 0 && count >= req.Limit,
		ElapsedNs: elapsed.Nanoseconds(),
	})
}

// lineWriter writes the NDJSON lines of a /stream response: each is
// encoded into the request's pooled buffer and sent with one Write.
type lineWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	buf     *[]byte
}

func (lw *lineWriter) send(c *StreamChunk) {
	*lw.buf = appendStreamChunk((*lw.buf)[:0], c)
	_, _ = lw.w.Write(*lw.buf)
}

// sendNodes writes a batch of result nodes and pushes it out to the
// client: a stream's first results must not wait for its last.
func (lw *lineWriter) sendNodes(b []int32) {
	lw.send(&StreamChunk{Nodes: b})
	if lw.flusher != nil {
		lw.flusher.Flush()
	}
}

// safeStreamNext pulls the next batch from a streaming cursor with
// panic containment: the stream loop runs on the handler goroutine
// mid-response, so a panicking operator must become an NDJSON error
// line, not a severed connection.
func safeStreamNext(cur interface{ Next() ([]int32, error) }) (b []int32, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fault.NewPanicError(v)
		}
	}()
	return cur.Next()
}

// streamError terminates a stream with an error line, counting
// timeouts and cancels like the batch path.
func (s *Server) streamError(lw *lineWriter, ctx context.Context, err error) {
	var res QueryResult
	s.classifyEvalErr(ctx, &res, err)
	s.errors.Add(1)
	lw.send(&StreamChunk{Error: err.Error()})
}

// failEval maps an admission or deadline failure to an HTTP response,
// for endpoints that have not started writing a body: 503 carries
// Retry-After, a gone client (499) gets nothing.
func (s *Server) failEval(w http.ResponseWriter, ctx context.Context, err error) {
	var res QueryResult
	s.classifyEvalErr(ctx, &res, err)
	switch res.status {
	case statusClientClosed:
		s.errors.Add(1)
		return
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "1")
	}
	s.fail(w, res.status, "%v", err)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	query := q.Get("q")
	if query == "" {
		s.fail(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	h, err := s.cat.Open(q.Get("doc"))
	if err != nil {
		s.fail(w, openStatus(err), "%v", err)
		return
	}
	defer h.Close()
	p, err := s.prepare(h, query, new([]byte))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Explain executes the whole plan, so it holds one worker-budget
	// unit just like a full POST /query — explain traffic cannot
	// oversubscribe the machine, and under overload it is shed the same
	// way — and it runs under the request's deadline and cancellation.
	ctx, cancel := s.requestCtx(r, 0)
	defer cancel()
	if err := s.pool.acquire(ctx); err != nil {
		s.failEval(w, ctx, err)
		return
	}
	defer s.pool.release()
	res, err := p.RunLimitRoot(ctx, 0)
	if err != nil {
		s.failEval(w, ctx, err)
		return
	}
	if q.Get("format") == "json" {
		out, err := p.ExplainJSON(res)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, p.ExplainText(res))
}

func (s *Server) handleDocs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"docs": s.cat.Info()})
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
// It deliberately touches no shared locks and always answers 200 —
// orchestrators restart on its failure, so it must not flap under
// load. Routability belongs to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"uptimeSeconds": int64(time.Since(s.start).Seconds()),
	})
}

// handleReadyz is readiness: 503 while draining (shutdown in
// progress) or while the admission queue is saturated, so load
// balancers route new work elsewhere before it would be shed.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
	case s.pool.saturated():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":     "saturated",
			"queueDepth": s.pool.queueDepth(),
		})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	emit := func(name string, v int64) { fmt.Fprintf(w, "xpathd_%s %d\n", name, v) }
	emit("queries_total", s.queries.Load())
	emit("batch_requests_total", s.batches.Load())
	emit("stream_requests_total", s.streams.Load())
	emit("cancelled_queries_total", s.cancels.Load())
	emit("cache_hits_total", s.cacheHits.Load())
	emit("cache_misses_total", s.cacheMisses.Load())
	emit("cache_entries", int64(s.cache.Len()))
	emit("cache_bytes", s.cache.Bytes())
	emit("cache_encoded_bytes", s.cache.EncodedBytes())
	emit("cache_encoded_hits_total", s.encodedHits.Load())
	emit("plan_cache_hits_total", s.planHits.Load())
	emit("plan_cache_misses_total", s.planMisses.Load())
	s.preparedMu.RLock()
	emit("plan_cache_entries", int64(len(s.prepared)))
	s.preparedMu.RUnlock()
	emit("errors_total", s.errors.Load())
	emit("shed_queries_total", s.pool.shedCount())
	emit("timeout_queries_total", s.timeouts.Load())
	emit("panics_recovered_total", fault.Recovered())
	emit("plan_reorders_total", plan.Reorders())
	emit("workers_in_use", int64(s.pool.inUse()))
	emit("workers_capacity", int64(s.pool.cap))
	emit("worker_queue_depth", int64(s.pool.queueDepth()))
	emit("catalog_resident_bytes", s.cat.ResidentBytes())
	emit("catalog_index_bytes", s.cat.IndexBytes())
	emit("catalog_value_index_bytes", s.cat.ValueIndexBytes())
	emit("uptime_seconds", int64(time.Since(s.start).Seconds()))
}

// openStatus maps a catalog.Open error to an HTTP status: unknown
// names are the client's fault, load failures are the server's.
func openStatus(err error) int {
	if errors.Is(err, catalog.ErrUnknownDocument) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.errors.Add(1)
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
