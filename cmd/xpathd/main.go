// Command xpathd is the XPath query daemon: it serves a catalog of
// pre/post encoded documents over an HTTP/JSON API, answering single
// and batched XPath queries concurrently with a shared result cache
// and a bounded worker pool.
//
// Usage:
//
//	xpathd -addr :8080 -doc auction=auction.xml -doc big=big.scj
//	xpathd -addr :8080 -gen demo=1        # generated XMark document
//
// Document sources may be XML text or the SCJ1/SCJ2 binary formats
// written by doc.WriteBinary (xpathq/examples); the format is sniffed
// from the file, and an SCJ2 file loads with its tag/kind pushdown
// index already materialised. -gen name=sizeMB registers a generated
// XMark-style document — handy for demos and load tests without files
// on disk. -index=false and -value-index=false make the catalog keep
// no tag/kind or value index; every query then plans without it
// (per-query column rescans, per-node value predicates; results
// identical — ablation/ops knobs). Requests carry no planner options.
//
//	curl -s localhost:8080/query -d '{
//	  "doc": "auction",
//	  "queries": ["/descendant::profile/descendant::education",
//	              "/descendant::increase/ancestor::bidder"]
//	}'
//	curl -s localhost:8080/query -d '{"doc":"auction","query":"//bidder","limit":5}'
//	curl -sN localhost:8080/stream -d '{"doc":"auction","query":"//bidder[descendant::increase]"}'
//	curl -s 'localhost:8080/explain?doc=auction&q=//bidder'
//	curl -s 'localhost:8080/explain?doc=auction&q=//bidder&format=json'
//	curl -s localhost:8080/docs
//	curl -s localhost:8080/metrics
//
// A query limit evaluates through the streaming executor (the join
// kernels stop after the limit-th result), and POST /stream writes
// result batches as NDJSON lines as the kernels produce them. Request
// cancellation (timeouts, client disconnects) propagates into running
// plans and frees their worker-pool slots.
//
// Overload and failure behaviour: -request-timeout bounds every
// evaluation (a request may lower it with timeoutMs; expiry answers
// 408), -max-queue bounds the admission queue (beyond it new work is
// shed with 503 + Retry-After, and GET /readyz reports saturation),
// and -max-body-bytes caps request bodies. On SIGINT/SIGTERM the
// daemon drains: /readyz flips to 503 so load balancers stop routing
// here, then in-flight queries and streams finish within
// -drain-timeout. Deterministic fault injection for chaos testing is
// available through the STAIRCASE_FAULTS environment variable (see
// internal/fault).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"staircase"
)

// pairList collects repeatable name=value flags.
type pairList []pair

type pair struct{ name, value string }

func (p *pairList) String() string {
	var parts []string
	for _, kv := range *p {
		parts = append(parts, kv.name+"="+kv.value)
	}
	return strings.Join(parts, ",")
}

func (p *pairList) Set(s string) error {
	name, value, ok := strings.Cut(s, "=")
	if !ok || name == "" || value == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	*p = append(*p, pair{name, value})
	return nil
}

// config is the parsed command line.
type config struct {
	addr                        string
	docs, gens                  pairList
	cacheMB, catalogMB, maxBody int64
	workers, maxQueue           int
	useIndex, useVIndex         bool
	reqTimeout, drainTimeout    time.Duration
}

// registerFlags declares the command's flags on fs.
func registerFlags(fs *flag.FlagSet) *config {
	c := &config{}
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.Var(&c.docs, "doc", "register a document: name=path (XML or SCJ1/SCJ2 binary, repeatable)")
	fs.Var(&c.gens, "gen", "register a generated XMark document: name=sizeMB (repeatable)")
	fs.Int64Var(&c.cacheMB, "cache-mb", 64, "result cache budget in MB (0 disables)")
	fs.Int64Var(&c.catalogMB, "catalog-mb", 0, "resident document budget in MB (0 = unbounded)")
	fs.IntVar(&c.workers, "workers", 0, "worker budget for query evaluation (0 = GOMAXPROCS)")
	fs.BoolVar(&c.useIndex, "index", true, "keep the shared tag/kind index resident per document (false: per-query column rescans; results identical)")
	fs.BoolVar(&c.useVIndex, "value-index", true, "keep the value index resident per document (false: value predicates re-evaluate per node; results identical)")
	fs.DurationVar(&c.reqTimeout, "request-timeout", 30*time.Second, "per-request evaluation deadline; requests may lower it with timeoutMs, expiry answers 408 (0 = none)")
	fs.IntVar(&c.maxQueue, "max-queue", -1, "admission queue bound: past this many waiting requests new work is shed with 503 + Retry-After (-1 = 8x workers, 0 = unbounded)")
	fs.Int64Var(&c.maxBody, "max-body-bytes", 1<<20, "request body cap on the JSON endpoints")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests and streams to finish")
	return c
}

func main() {
	cfg := registerFlags(flag.CommandLine)
	flag.Parse()

	if len(cfg.docs) == 0 && len(cfg.gens) == 0 {
		fmt.Fprintln(os.Stderr, "xpathd: no documents; use -doc name=path or -gen name=sizeMB")
		os.Exit(2)
	}

	var catOpts []staircase.CatalogOption
	if !cfg.useIndex {
		catOpts = append(catOpts, staircase.WithoutIndex())
	}
	if !cfg.useVIndex {
		catOpts = append(catOpts, staircase.WithoutValueIndex())
	}
	cat := staircase.NewCatalog(cfg.catalogMB<<20, catOpts...)
	for _, kv := range cfg.docs {
		if err := cat.Register(kv.name, kv.value); err != nil {
			fmt.Fprintln(os.Stderr, "xpathd:", err)
			os.Exit(1)
		}
	}
	for _, kv := range cfg.gens {
		mb, err := strconv.ParseFloat(kv.value, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xpathd: bad -gen size %q: %v\n", kv.value, err)
			os.Exit(1)
		}
		d, err := staircase.GenerateXMark(mb, 42)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xpathd:", err)
			os.Exit(1)
		}
		if err := cat.Add(kv.name, d); err != nil {
			fmt.Fprintln(os.Stderr, "xpathd:", err)
			os.Exit(1)
		}
	}

	srv := staircase.NewServer(staircase.ServerConfig{
		Catalog:        cat,
		CacheBytes:     cfg.cacheMB << 20,
		Workers:        cfg.workers,
		RequestTimeout: cfg.reqTimeout,
		MaxQueue:       cfg.maxQueue,
		MaxBodyBytes:   cfg.maxBody,
	})
	// No WriteTimeout: POST /stream responses legitimately run for as
	// long as the evaluation deadline allows; slow-client protection on
	// the read side comes from the header/body timeouts and the body
	// size cap instead.
	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	// Shutdown makes ListenAndServe return immediately, so main must
	// wait for the drain to finish before exiting. BeginDrain flips
	// /readyz to 503 first, so load balancers stop sending work before
	// Shutdown starts waiting on the in-flight handlers (including
	// streams, which hold their connection for the whole evaluation).
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "xpathd: draining")
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "xpathd: drain timed out:", err)
		}
	}()

	fmt.Fprintf(os.Stderr, "xpathd: serving %d document(s) on %s\n", len(cat.Names()), cfg.addr)
	if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "xpathd:", err)
		os.Exit(1)
	}
	<-drained
}
