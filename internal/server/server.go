// Package server exposes the catalog and engine as a long-lived HTTP
// query service — the front door of cmd/xpathd. It is the layer the
// paper's framing implies but never builds: the staircase join as the
// axis-step workhorse *inside* a system answering many concurrent
// queries over many documents.
//
// The design leans on one fact: documents are immutable after
// shredding, so query evaluation needs no locking at all — concurrency
// control collapses into catalog lookup. Three shared structures do the
// rest:
//
//   - a compiled-query LRU (parse + logical rewrite once per distinct
//     query text) and a prepared-plan LRU (physical plan once per
//     document generation × options × query);
//   - a sharded LRU result cache keyed on (doc, generation, canonical
//     optimized-plan string) — equivalent query texts compile to the
//     same canonical plan and share one entry; see
//     docs/ARCHITECTURE.md for the key design;
//   - a weighted worker semaphore that both inter-query concurrency and
//     intra-query partition parallelism (engine.Options.Parallelism)
//     draw from, so a burst of wide parallel queries cannot oversubscribe
//     the machine;
//   - optionally (Config.ShareScans) a pace-car registry that coalesces
//     identical in-flight executions: concurrent cache misses on the
//     same (doc, generation, canonical plan, limit) key share one
//     driven cursor, and the completed buffer retires into the result
//     cache — see internal/share.
//
// Endpoints: POST /query (single or batched queries against one
// document), POST /stream (one query, results as NDJSON batches),
// GET /explain, GET /docs, GET /healthz (liveness), GET /readyz
// (readiness: 503 while draining or at the admission bound),
// GET /metrics.
//
// Request contexts propagate into plan execution: a client disconnect
// or server timeout cancels the running cursors between batches, so
// abandoned queries release their worker-semaphore units instead of
// scanning to completion. Limited queries (POST /query with limit=N,
// POST /stream) evaluate through the engine's streaming executor —
// the staircase kernels stop after the N-th result — and the result
// cache keys truncated results on (canonical plan, limit) so they
// never collide with full results.
//
// Failure model. The server survives overload and misbehaving
// operators rather than merely performing well on the happy path:
//
//   - Admission control: the worker semaphore's wait queue is bounded
//     (Config.MaxQueue). At the bound, new work is shed immediately
//     with 503 + Retry-After instead of queueing unboundedly, and a
//     queued waiter whose client disconnects abandons its slot without
//     ever holding units.
//   - Deadlines: Config.RequestTimeout bounds every request; a request
//     may lower (never raise) it with timeoutMs. Expiry surfaces as
//     408 and cancels the running cursors between batches.
//   - Panic containment: evaluation is recovered at every boundary —
//     per batch item, per stream batch, per flight drive, per join
//     worker — so a panicking operator costs one query a 500, not the
//     process; its semaphore units release and its flight aborts.
package server

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"staircase/internal/catalog"
	"staircase/internal/engine"
	"staircase/internal/fault"
	"staircase/internal/plan"
	"staircase/internal/share"
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
	// DefaultParallelism is the engine parallelism applied when a
	// request does not set one (0 = serial, engine.AutoParallelism = all
	// cores, clamped by the worker budget).
	DefaultParallelism int
	// NoIndex disables the shared tag/kind index by default: pushdown
	// fragments are rebuilt by column scan per query (ablation knob,
	// xpathd -index=false). Individual requests may also set it.
	NoIndex bool
	// NoValueIndex disables value-index fragment service by default:
	// comparison and contains() predicates are re-evaluated per node
	// (ablation knob, xpathd -value-index=false). Individual requests
	// may also set it.
	NoValueIndex bool
	// NoReorder disables the planner's greedy filter ordering,
	// empty-fragment short-circuit and mid-flight adaptive re-planning
	// by default: predicates evaluate in source order (ablation knob,
	// xpathd -no-reorder). Individual requests may also set it.
	NoReorder bool
	// MaxBatch caps the number of queries in one POST /query request;
	// <= 0 defaults to 256.
	MaxBatch int
	// ShareScans coalesces identical in-flight executions: concurrent
	// cache-missing requests with the same (doc, generation, canonical
	// plan, limit) key share one pace-car execution instead of each
	// running the plan (xpathd -share-scans). Requests with NoCache
	// bypass coalescing along with the cache.
	ShareScans bool
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
	cfg     Config
	cat     *catalog.Catalog
	cache   *resultCache
	pool    *wsem
	flights *share.Registry
	start   time.Time

	compiledMu sync.Mutex
	compiled   map[string]*list.Element
	compiledLL *list.List // front = most recent; values are *compiledEntry

	// The result-cache fast path sits behind prepare(), so a plan hit
	// takes preparedMu shared — concurrent warm requests do not
	// serialise, and the look-up reads the request's pooled key bytes
	// without building a string — and skips the LRU recency bump (an
	// approximation the 4096-entry budget tolerates).
	preparedMu  sync.RWMutex
	prepared    map[string]*list.Element
	preparedLL  *list.List        // front = most recent; values are *preparedEntry
	preparedGen map[string]uint64 // latest generation seen per document

	// defaultOpts is engineOptions(nil), resolved once: a request
	// without options shares it read-only.
	defaultOpts *engine.Options

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
	p   *engine.Prepared
}

type compiledEntry struct {
	src string
	c   *engine.Compiled
}

// maxCompiled bounds the compiled-query LRU; distinct query texts
// beyond this evict the least recently used handle.
const maxCompiled = 1024

// maxPrepared bounds the prepared-plan LRU; distinct (document
// generation, options, query) combinations beyond this evict the
// least recently used plan.
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
	s := &Server{
		cfg:         cfg,
		cat:         cfg.Catalog,
		cache:       newResultCache(cfg.CacheBytes),
		pool:        newWsem(workers, maxQueue),
		start:       time.Now(),
		compiled:    make(map[string]*list.Element),
		compiledLL:  list.New(),
		prepared:    make(map[string]*list.Element),
		preparedLL:  list.New(),
		preparedGen: make(map[string]uint64),
	}
	// The pace car is the only client of a flight doing work, so it is
	// the only one charged against the worker budget: the wheel hooks
	// acquire and release the flight's cost as the wheel changes hands.
	// engineOptions clamps every cost to the pool capacity, so the
	// acquire can never deadlock on an over-wide grant. The take goes
	// through the bounded, context-aware acquire: a candidate driver
	// that is shed (or whose client is gone) fails alone — the flight
	// stays live for the other followers, one of whom takes the wheel.
	s.flights = share.NewRegistry(0, share.Hooks{
		OnWheel: func(ctx context.Context, cost int) error {
			_, err := s.pool.acquire(ctx, cost)
			return err
		},
		OnWheelDone: func(cost int) { s.pool.release(cost) },
	})
	s.defaultOpts, _ = s.engineOptions(nil)
	return s
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
// recover closer to the panic (evalOne, the stream loops, flight
// drives, join workers) so they can release resources and answer
// precisely; this middleware catches what escapes anyway — net/http
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

// Draining reports whether BeginDrain was called (tests, /readyz).
func (s *Server) Draining() bool { return s.draining.Load() }

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

// QueryOptions selects the evaluation configuration, mirroring
// engine.Options with JSON-friendly names.
type QueryOptions struct {
	// Strategy: staircase (default), staircase-skip, staircase-noskip,
	// naive, sql, sql-window.
	Strategy string `json:"strategy,omitempty"`
	// Pushdown: auto (default), always, never.
	Pushdown string `json:"pushdown,omitempty"`
	// Parallelism: 0/1 serial, N > 1 up to N staircase-join workers,
	// -1 all cores. Clamped to the server's worker budget. Only full
	// evaluations fan out; limit queries and streams run serial cursors.
	Parallelism int `json:"parallelism,omitempty"`
	// NoIndex evaluates without the shared tag/kind index (per-query
	// column rescans; results are identical — ablation knob).
	NoIndex bool `json:"noIndex,omitempty"`
	// NoValueIndex evaluates value predicates without the value index
	// (per-node string comparison; results are identical — ablation
	// knob).
	NoValueIndex bool `json:"noValueIndex,omitempty"`
	// NoReorder evaluates predicates strictly in source order, without
	// greedy ordering or adaptive re-planning (results are identical —
	// ablation knob).
	NoReorder bool `json:"noReorder,omitempty"`
}

// QueryRequest is the POST /query body. Query and Queries may be
// combined; all run against the one named document.
type QueryRequest struct {
	Doc     string        `json:"doc"`
	Query   string        `json:"query,omitempty"`
	Queries []string      `json:"queries,omitempty"`
	Options *QueryOptions `json:"options,omitempty"`
	// NoCache bypasses the result cache (no lookup, no store).
	NoCache bool `json:"noCache,omitempty"`
	// Limit stops each query after its first N result nodes via the
	// streaming executor (the join kernels never scan past what the
	// limit needs); 0 returns all nodes. Limited results are cached
	// under (canonical plan, limit).
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
	Truncated bool `json:"truncated,omitempty"`
	Cached    bool `json:"cached"`
	// Coalesced reports that the query attached to an in-flight
	// execution of the same plan instead of starting its own
	// (Config.ShareScans).
	Coalesced bool   `json:"coalesced,omitempty"`
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

var strategies = map[string]engine.Strategy{
	"":                 engine.Staircase,
	"staircase":        engine.Staircase,
	"staircase-skip":   engine.StaircaseSkip,
	"staircase-noskip": engine.StaircaseNoSkip,
	"naive":            engine.Naive,
	"sql":              engine.SQL,
	"sql-window":       engine.SQLWindow,
}

var pushdowns = map[string]engine.Pushdown{
	"":       engine.PushAuto,
	"auto":   engine.PushAuto,
	"always": engine.PushAlways,
	"never":  engine.PushNever,
}

// engineOptions resolves request options against server defaults and
// clamps parallelism to the worker budget: the engine never spawns more
// join workers for one query than the units the query holds in the
// pool, keeping the "cannot oversubscribe the machine" contract honest.
func (s *Server) engineOptions(o *QueryOptions) (*engine.Options, error) {
	if o == nil && s.defaultOpts != nil {
		return s.defaultOpts, nil
	}
	opts := &engine.Options{
		Parallelism:  s.cfg.DefaultParallelism,
		NoIndex:      s.cfg.NoIndex,
		NoValueIndex: s.cfg.NoValueIndex,
		NoReorder:    s.cfg.NoReorder,
	}
	if o != nil {
		if o.NoIndex {
			opts.NoIndex = true
		}
		if o.NoValueIndex {
			opts.NoValueIndex = true
		}
		if o.NoReorder {
			opts.NoReorder = true
		}
		strat, ok := strategies[o.Strategy]
		if !ok {
			return nil, fmt.Errorf("unknown strategy %q", o.Strategy)
		}
		push, ok := pushdowns[o.Pushdown]
		if !ok {
			return nil, fmt.Errorf("unknown pushdown mode %q", o.Pushdown)
		}
		opts.Strategy = strat
		opts.Pushdown = push
		if o.Parallelism != 0 {
			opts.Parallelism = o.Parallelism
		}
	}
	p := opts.Parallelism
	if p < 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > s.pool.cap {
		p = s.pool.cap
	}
	if p < 1 {
		p = 1
	}
	opts.Parallelism = p
	return opts, nil
}

// appendCacheKey appends the result-cache key built from the canonical
// optimized-plan string. Document generation guards against
// reload-after-eviction serving stale results; the canonical plan
// covers the operator tree, strategy and pushdown policy, and — by
// construction — collapses equivalent query texts ("//a/b" vs its
// unabbreviated spelling) onto one entry, while parallelism and the
// NoIndex ablation knob stay excluded (both are property-tested to be
// byte-identical to the default evaluation). A limit joins the key:
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

// appendPreparedKey appends the key of a physical plan: document
// generation, full options signature (parallelism and NoIndex change
// how a plan executes, so prepared handles are per-knob even though
// results are not), and the query text.
func appendPreparedKey(dst []byte, docName string, gen uint64, opts *engine.Options, query string) []byte {
	dst = append(dst, docName...)
	dst = append(dst, 0)
	dst = strconv.AppendUint(dst, gen, 10)
	dst = append(dst, 0)
	dst = append(dst, opts.Strategy.String()...)
	dst = append(dst, 0)
	dst = append(dst, opts.Pushdown.String()...)
	dst = append(dst, 0)
	dst = strconv.AppendInt(dst, int64(opts.Parallelism), 10)
	if opts.NoIndex {
		dst = append(dst, ",noindex"...)
	}
	if opts.NoValueIndex {
		dst = append(dst, ",novalueindex"...)
	}
	if opts.NoReorder {
		dst = append(dst, ",noreorder"...)
	}
	dst = append(dst, 0)
	return append(dst, query...)
}

// compile returns a compiled handle for the query text, LRU-cached.
func (s *Server) compile(query string) (*engine.Compiled, error) {
	s.compiledMu.Lock()
	if el, ok := s.compiled[query]; ok {
		s.compiledLL.MoveToFront(el)
		c := el.Value.(*compiledEntry).c
		s.compiledMu.Unlock()
		return c, nil
	}
	s.compiledMu.Unlock()

	c, err := engine.Compile(query) // parse outside the lock
	if err != nil {
		return nil, err
	}

	s.compiledMu.Lock()
	defer s.compiledMu.Unlock()
	if el, ok := s.compiled[query]; ok { // raced: keep the first
		s.compiledLL.MoveToFront(el)
		return el.Value.(*compiledEntry).c, nil
	}
	s.compiled[query] = s.compiledLL.PushFront(&compiledEntry{src: query, c: c})
	for len(s.compiled) > maxCompiled {
		el := s.compiledLL.Back()
		e := s.compiledLL.Remove(el).(*compiledEntry)
		delete(s.compiled, e.src)
	}
	return c, nil
}

// prepare returns the physical plan for (document, options, query),
// LRU-cached per document generation: parse and logical rewrite come
// from the compiled-query cache, the optimizer runs once per
// generation × options × text. The key is built in *kb, scratch the
// caller may reuse afterwards.
func (s *Server) prepare(h *catalog.Handle, query string, opts *engine.Options, kb *[]byte) (*engine.Prepared, error) {
	*kb = appendPreparedKey((*kb)[:0], h.Name(), h.Generation(), opts, query)
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
	s.preparedMu.Unlock()
	s.planMisses.Add(1)

	c, err := s.compile(query)
	if err != nil {
		return nil, err
	}
	p, err := h.Engine().Prepare(c, opts) // optimize outside the lock
	if err != nil {
		return nil, err
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
func (s *Server) evalOne(lc *lazyCtx, h *catalog.Handle, query string, opts *engine.Options, noCache bool, limit int, kb *[]byte) (res QueryResult) {
	start := time.Now()
	res = QueryResult{Query: query}
	defer func() {
		if v := recover(); v != nil {
			res.Error = fault.NewPanicError(v).Error()
			res.status = http.StatusInternalServerError
			res.ElapsedNs = time.Since(start).Nanoseconds()
		}
	}()
	p, err := s.prepare(h, query, opts, kb)
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
			// more behind it — the same conservative report EvalLimit
			// itself gives at the boundary.
			res.Truncated = limit > 0 && len(e.nodes) >= limit
			res.Cached = true
			res.ElapsedNs = time.Since(start).Nanoseconds()
			return res
		}
		s.cacheMisses.Add(1)
	}
	// Only a miss needs the key as a string and the request's context.
	key := string(*kb)
	ctx := lc.get()
	if s.cfg.ShareScans && !noCache {
		nodes, coalesced, serr := s.sharedEval(ctx, p, key, limit)
		elapsed := time.Since(start)
		h.RecordQuery(elapsed)
		res.ElapsedNs = elapsed.Nanoseconds()
		if serr != nil {
			s.classifyEvalErr(ctx, &res, serr)
			return res
		}
		res.Nodes = nodes
		res.Count = len(nodes)
		res.Truncated = limit > 0 && len(nodes) >= limit
		res.Coalesced = coalesced
		return res
	}
	// A query holds one unit per worker it can run: RunCtx fans out over
	// opts.Parallelism, EvalLimit drives a serial cursor.
	units := opts.Parallelism
	if limit > 0 {
		units = 1
	}
	cost, err := s.pool.acquire(ctx, units)
	if err != nil {
		res.ElapsedNs = time.Since(start).Nanoseconds()
		s.classifyEvalErr(ctx, &res, err)
		return res
	}
	// Deferred (not inline after eval) so a panicking operator cannot
	// leak its units past the recover above.
	defer s.pool.release(cost)
	var r *engine.Result
	if limit > 0 {
		r, err = p.EvalLimit(ctx, limit)
	} else {
		r, err = p.RunCtx(ctx)
	}
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
		s.cache.Put(key, r.Nodes)
	}
	return res
}

// limitCursor caps a streaming cursor at its flight's limit: the
// coalesced counterpart of EvalLimit. Reporting exhaustion at the cap
// makes the flight finish and close the underlying cursor, so the
// kernels never scan past what the limit needs.
type limitCursor struct {
	cur interface {
		Next() ([]int32, error)
		Close()
	}
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

func (l *limitCursor) Close() { l.cur.Close() }

// joinFlight joins (or creates) the in-flight execution of p under its
// cache key; the completed buffer retires into the result cache. A
// flight drives a serial cursor, so its pace car holds one unit.
func (s *Server) joinFlight(p *engine.Prepared, key string, limit int) (*share.Follower, bool) {
	open := func(fctx context.Context) (share.Cursor, error) {
		cur, err := p.Cursor(fctx)
		if err != nil {
			return nil, err
		}
		if limit > 0 {
			return &limitCursor{cur: cur, left: limit}, nil
		}
		return cur, nil
	}
	retire := func(nodes []int32) { s.cache.Put(key, nodes) }
	return s.flights.Join(key, 1, open, retire)
}

// sharedEval evaluates through the pace-car registry: identical
// concurrent cache misses share one execution keyed exactly like their
// cache entry, and the completed buffer retires into the cache through
// the flight. The returned bool reports coalescing (this client
// attached to a flight another request created).
func (s *Server) sharedEval(ctx context.Context, p *engine.Prepared, key string, limit int) ([]int32, bool, error) {
	f, created := s.joinFlight(p, key, limit)
	defer f.Close()
	var nodes []int32
	for {
		b, err := f.Next(ctx)
		if err != nil {
			return nil, !created, err
		}
		if b == nil {
			return nodes, !created, nil
		}
		nodes = append(nodes, b...)
	}
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
	opts, err := s.engineOptions(req.Options)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
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
			results[i] = s.evalOne(&st.lc, h, q, opts, req.NoCache, req.Limit, new([]byte))
		}(i+1, q)
	}
	results[0] = s.evalOne(&st.lc, h, queries[0], opts, req.NoCache, req.Limit, &st.key)
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
	Done      bool `json:"done,omitempty"`
	Count     int  `json:"count,omitempty"`
	Truncated bool `json:"truncated,omitempty"`
	// Coalesced (terminal line) reports that the stream attached to an
	// in-flight execution instead of starting its own; Cached that it
	// was served from the result cache (both Config.ShareScans).
	Coalesced bool   `json:"coalesced,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	ElapsedNs int64  `json:"elapsedNs,omitempty"`
	Error     string `json:"error,omitempty"`
}

// handleStream answers POST /stream: one query, evaluated through the
// streaming cursor executor, with each result batch written as one
// NDJSON line as soon as the kernels produce it. The stream holds one
// worker-budget unit for its whole duration; a client disconnect
// cancels the request context, the cursor stops between batches, and
// the unit releases.
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
	opts, err := s.engineOptions(req.Options)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	h, err := s.cat.Open(req.Doc)
	if err != nil {
		s.fail(w, openStatus(err), "%v", err)
		return
	}
	defer h.Close()
	p, err := s.prepare(h, req.Query, opts, &st.key)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	ctx = fault.WithTag(ctx, "stream")
	lw := lineWriter{w: w, buf: &st.out}
	lw.flusher, _ = w.(http.Flusher)
	if s.cfg.ShareScans && !req.NoCache {
		s.streamShared(&lw, ctx, h, p, req.Limit, &st.key)
		return
	}
	start := time.Now()
	cost, err := s.pool.acquire(ctx, 1) // a cursor runs serially
	if err != nil {
		s.failEval(w, ctx, err)
		return
	}
	defer s.pool.release(cost)
	cur, err := p.Cursor(ctx)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cur.Close()
	var next interface{ Next() ([]int32, error) } = cur
	if req.Limit > 0 {
		next = &limitCursor{cur: cur, left: req.Limit}
	}

	s.streams.Add(1)
	s.queries.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	if count, ok := s.pump(&lw, ctx, func() ([]int32, error) { return safeStreamNext(next) }); ok {
		s.finishStream(&lw, h, start, count, req.Limit, false, false)
	}
}

// pump writes the batches next yields as NDJSON lines until it is
// exhausted and returns how many nodes went out; after a failure it has
// written the error line and reports false.
func (s *Server) pump(lw *lineWriter, ctx context.Context, next func() ([]int32, error)) (count int, ok bool) {
	for {
		b, err := next()
		if err != nil {
			s.streamError(lw, ctx, err)
			return count, false
		}
		if b == nil {
			return count, true
		}
		count += len(b)
		lw.sendNodes(b)
	}
}

// finishStream writes a stream's terminal line. Reaching the limit
// reports truncated: more may exist.
func (s *Server) finishStream(lw *lineWriter, h *catalog.Handle, start time.Time, count, limit int, coalesced, cached bool) {
	elapsed := time.Since(start)
	h.RecordQuery(elapsed)
	lw.send(&StreamChunk{
		Done:      true,
		Count:     count,
		Truncated: limit > 0 && count >= limit,
		Coalesced: coalesced,
		Cached:    cached,
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

// streamShared answers POST /stream through the pace-car registry:
// the stream is keyed exactly like its result-cache entry, a cache hit
// replays the retired buffer of an earlier flight, and a miss joins
// (or creates) the in-flight execution — identical concurrent cold
// streams run the plan exactly once. Only the current driver holds
// worker-budget units (via the registry's wheel hooks); followers are
// blocked handlers replaying shared batches.
func (s *Server) streamShared(lw *lineWriter, ctx context.Context, h *catalog.Handle, p *engine.Prepared, limit int, kb *[]byte) {
	*kb = appendCacheKey((*kb)[:0], h.Name(), h.Generation(), p.Canon(), limit)
	start := time.Now()
	s.streams.Add(1)
	s.queries.Add(1)
	lw.w.Header().Set("Content-Type", "application/x-ndjson")
	if e, ok := s.cache.Get(*kb); ok {
		s.cacheHits.Add(1)
		const chunk = 1024
		for off := 0; off < len(e.nodes); off += chunk {
			// The replay obeys the request like a live stream: a deadline
			// or a gone client stops it between chunks.
			if err := ctx.Err(); err != nil {
				s.streamError(lw, ctx, err)
				return
			}
			lw.sendNodes(e.nodes[off:min(off+chunk, len(e.nodes))])
		}
		s.finishStream(lw, h, start, len(e.nodes), limit, false, true)
		return
	}
	s.cacheMisses.Add(1)
	f, created := s.joinFlight(p, string(*kb), limit)
	defer f.Close()
	if count, ok := s.pump(lw, ctx, func() ([]int32, error) { return f.Next(ctx) }); ok {
		s.finishStream(lw, h, start, count, limit, !created, false)
	}
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	query := q.Get("q")
	if query == "" {
		s.fail(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	par := 0
	if v := q.Get("parallelism"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "bad parallelism %q", v)
			return
		}
		par = n
	}
	noIndex := false
	if v := q.Get("noIndex"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "bad noIndex %q", v)
			return
		}
		noIndex = b
	}
	noValueIndex := false
	if v := q.Get("noValueIndex"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "bad noValueIndex %q", v)
			return
		}
		noValueIndex = b
	}
	noReorder := false
	if v := q.Get("noReorder"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "bad noReorder %q", v)
			return
		}
		noReorder = b
	}
	opts, err := s.engineOptions(&QueryOptions{
		Strategy:     q.Get("strategy"),
		Pushdown:     q.Get("pushdown"),
		Parallelism:  par,
		NoIndex:      noIndex,
		NoValueIndex: noValueIndex,
		NoReorder:    noReorder,
	})
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	h, err := s.cat.Open(q.Get("doc"))
	if err != nil {
		s.fail(w, openStatus(err), "%v", err)
		return
	}
	defer h.Close()
	p, err := s.prepare(h, query, opts, new([]byte))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Explain executes the plan through Plan.Run, so it holds one
	// worker-budget unit per join worker just like a full POST /query —
	// explain traffic cannot oversubscribe the machine, and under
	// overload it is shed the same way.
	ctx, cancel := s.requestCtx(r, 0)
	defer cancel()
	cost, err := s.pool.acquire(ctx, opts.Parallelism)
	if err != nil {
		s.failEval(w, ctx, err)
		return
	}
	defer s.pool.release(cost)
	if q.Get("format") == "json" {
		out, err := p.ExplainJSON()
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
		return
	}
	out, err := p.Explain()
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, out)
	if s.cfg.ShareScans {
		created, coalesced, handoffs := s.flights.Stats()
		fmt.Fprintf(w, "share-scans: on flights=%d coalesced=%d handoffs=%d\n",
			created, coalesced, handoffs)
	}
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
	created, coalesced, handoffs := s.flights.Stats()
	emit("shared_flights_total", created)
	emit("coalesced_queries_total", coalesced)
	emit("pace_car_handoffs_total", handoffs)
	emit("shared_flights_in_flight", int64(s.flights.InFlight()))
	emit("errors_total", s.errors.Load())
	emit("shed_queries_total", s.pool.shedCount())
	emit("timeout_queries_total", s.timeouts.Load())
	emit("panics_recovered_total", fault.Recovered())
	emit("plan_reorders_total", plan.Reorders())
	emit("adaptive_replans_total", plan.AdaptiveReplans())
	emit("workers_in_use", int64(s.pool.inUse()))
	emit("workers_capacity", int64(s.pool.cap))
	emit("worker_queue_depth", int64(s.pool.queueDepth()))
	emit("catalog_resident_bytes", s.cat.ResidentBytes())
	emit("catalog_index_bytes", s.cat.IndexBytes())
	emit("catalog_value_index_bytes", s.cat.ValueIndexBytes())
	emit("uptime_seconds", int64(time.Since(s.start).Seconds()))
}

// CacheStats reports result-cache hit/miss counters (tests, benchmarks).
func (s *Server) CacheStats() (hits, misses int64) {
	return s.cacheHits.Load(), s.cacheMisses.Load()
}

// PlanCacheStats reports prepared-plan cache hit/miss counters (tests,
// benchmarks).
func (s *Server) PlanCacheStats() (hits, misses int64) {
	return s.planHits.Load(), s.planMisses.Load()
}

// ShareStats reports pace-car registry counters — flights created
// (cold executions started), queries coalesced onto an existing
// flight, and mid-flight wheel handoffs (tests, benchmarks).
func (s *Server) ShareStats() (created, coalesced, handoffs int64) {
	return s.flights.Stats()
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
