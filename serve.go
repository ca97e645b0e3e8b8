package staircase

import (
	"io"
	"net/http"
	"time"

	"staircase/internal/catalog"
	"staircase/internal/server"
	"staircase/internal/xmark"
)

// GenerateXMark generates an XMark-style auction document of
// approximately sizeMB megabytes (the paper evaluation's workload;
// the same seed always produces the same document).
func GenerateXMark(sizeMB float64, seed int64) (*Document, error) {
	d, err := xmark.Generate(xmark.Config{SizeMB: sizeMB, Seed: seed, KeepValues: true})
	if err != nil {
		return nil, err
	}
	return wrap(d), nil
}

// WriteXMark writes the XML text of an XMark-style auction document
// without materialising it (cmd/xmlgen's streaming path).
func WriteXMark(w io.Writer, sizeMB float64, seed int64) error {
	return xmark.Write(w, xmark.Config{SizeMB: sizeMB, Seed: seed, KeepValues: true})
}

// Catalog is a named collection of document sources with lazy loading
// and bounded residency — the storage layer of the query server. Safe
// for concurrent use.
type Catalog struct {
	c *catalog.Catalog
}

// CatalogOption configures a Catalog.
type CatalogOption func(*catalogConfig)

type catalogConfig struct {
	inner []catalog.Option
}

// WithoutIndex keeps no tag/kind index: loads skip the build and the
// catalog's queries rebuild pushdown fragments by column scan; results
// are identical (the ablation/operations knob behind xpathd
// -index=false).
func WithoutIndex() CatalogOption {
	return func(c *catalogConfig) { c.inner = append(c.inner, catalog.WithoutIndex()) }
}

// WithoutValueIndex keeps no value index: loads skip the build and the
// catalog's queries evaluate value predicates per node; results are
// identical (the ablation/operations knob behind xpathd
// -value-index=false).
func WithoutValueIndex() CatalogOption {
	return func(c *catalogConfig) { c.inner = append(c.inner, catalog.WithoutValueIndex()) }
}

// NewCatalog returns an empty catalog. maxBytes bounds the total
// resident bytes of loaded documents (0 = unbounded); entries beyond
// the budget are evicted least-recently-used once unreferenced.
func NewCatalog(maxBytes int64, opts ...CatalogOption) *Catalog {
	var cfg catalogConfig
	for _, o := range opts {
		o(&cfg)
	}
	return &Catalog{c: catalog.New(maxBytes, cfg.inner...)}
}

// Register adds a named document source without loading it; the
// format (XML text or SCJ binary) is sniffed on first load.
func (c *Catalog) Register(name, path string) error {
	return c.c.Register(name, path, catalog.FormatAuto)
}

// Add registers an already-loaded document under a name. Such entries
// have no on-disk source, so they are pinned: never evicted.
func (c *Catalog) Add(name string, d *Document) error {
	return c.c.AddDocument(name, d.d)
}

// Names returns the registered document names, sorted.
func (c *Catalog) Names() []string { return c.c.Names() }

// ServerConfig configures a query Server.
type ServerConfig struct {
	// Catalog provides the named documents. Required.
	Catalog *Catalog
	// CacheBytes is the result-cache budget in bytes; <= 0 disables
	// the cache. The cache is keyed on the canonical optimized-plan
	// string, so equivalent query spellings share entries.
	CacheBytes int64
	// Workers is the shared worker budget for query evaluation; <= 0
	// defaults to GOMAXPROCS.
	Workers int
	// MaxBatch caps the number of queries in one POST /query request;
	// <= 0 defaults to 256.
	MaxBatch int
	// ShareScans once coalesced identical in-flight executions. It is
	// kept only so that existing callers still compile.
	//
	// Deprecated: ShareScans is ignored. Every request runs its own
	// execution.
	ShareScans bool
	// RequestTimeout bounds every request's evaluation; <= 0 means no
	// server-side deadline. A request may lower — never raise — it with
	// its timeoutMs field. Expiry surfaces as HTTP 408 (xpathd
	// -request-timeout).
	RequestTimeout time.Duration
	// MaxQueue bounds the worker semaphore's admission queue: past
	// MaxQueue parked requests, new work is shed immediately with
	// 503 + Retry-After instead of queueing unboundedly. 0 queues
	// unboundedly; < 0 picks an automatic bound of 8× the worker
	// budget (xpathd -max-queue).
	MaxQueue int
	// MaxBodyBytes caps request bodies on the JSON endpoints; <= 0
	// defaults to 1 MiB (xpathd -max-body-bytes).
	MaxBodyBytes int64
}

// Server is the HTTP/JSON query service: POST /query (single and
// batched), GET /explain (text and ?format=json), GET /docs,
// /healthz (liveness), /readyz (readiness), /metrics. Safe for
// concurrent use.
type Server struct {
	s *server.Server
}

// NewServer builds a query server over the catalog.
func NewServer(cfg ServerConfig) *Server {
	return &Server{s: server.New(server.Config{
		Catalog:        cfg.Catalog.c,
		CacheBytes:     cfg.CacheBytes,
		Workers:        cfg.Workers,
		MaxBatch:       cfg.MaxBatch,
		RequestTimeout: cfg.RequestTimeout,
		MaxQueue:       cfg.MaxQueue,
		MaxBodyBytes:   cfg.MaxBodyBytes,
	})}
}

// Handler returns the HTTP routing table, ready for http.Server.
func (s *Server) Handler() http.Handler { return s.s.Handler() }

// BeginDrain flips /readyz to 503 so load balancers stop routing new
// work here while in-flight requests (including streams) finish. Call
// it on shutdown before http.Server.Shutdown, which then waits for
// the in-flight handlers.
func (s *Server) BeginDrain() { s.s.BeginDrain() }
