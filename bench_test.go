// Package staircase_test hosts the product's micro-benchmarks: value
// pushdown, served cache hits, plan compile, batch and cursor drains of
// the repository benchmark's plans, index build and the load path. The
// paper's tables and figures are reproduced by package bench
// (`go test ./bench -run Paper -v`, `go run ./cmd/benchrun`).
//
// Benchmarks report, besides ns/op, per-node costs and allocations via
// b.ReportMetric and b.ReportAllocs.
package staircase_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"

	"staircase/bench"
	"staircase/internal/catalog"
	"staircase/internal/doc"
	"staircase/internal/index"
	"staircase/internal/plan"
	"staircase/internal/server"
	"staircase/internal/xmark"
	"staircase/internal/xpath"
)

// benchSizes is the document sweep for benchmarks (MB equivalents).
var benchSizes = []float64{0.5, 2}

var (
	corpus   = bench.NewCorpus()
	ctxMu    sync.Mutex
	ctxCache = map[float64]benchCtx{}
)

type benchCtx struct {
	d   *doc.Document
	env *plan.Env
}

func getCtx(mb float64) benchCtx {
	ctxMu.Lock()
	defer ctxMu.Unlock()
	if c, ok := ctxCache[mb]; ok {
		return c
	}
	d := corpus.Doc(mb)
	c := benchCtx{d: d, env: plan.NewEnv(d)}
	ctxCache[mb] = c
	return c
}

func forSizes(b *testing.B, f func(b *testing.B, c benchCtx)) {
	for _, mb := range benchSizes {
		b.Run(fmt.Sprintf("%gMB", mb), func(b *testing.B) {
			f(b, getCtx(mb))
		})
	}
}

// --- value index: fragment semijoin, prepared and ad hoc ----------------------

// valueRange is a numeric range comparison served by the value index's
// derived numeric partition.
const valueRange = "//open_auction[current > 100]"

func benchValuePushdown(b *testing.B, cold bool) {
	for _, mb := range benchSizes {
		b.Run(fmt.Sprintf("%gMB", mb), func(b *testing.B) {
			d := corpus.ValueDoc(mb)
			d.TagIndex()
			d.ValueIndex() // both resident, as in a server's catalog
			env := plan.NewEnv(d)
			p, err := plan.Prepare(env, valueRange, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					if p, err = plan.Prepare(env, valueRange, nil); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := p.RunRoot(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkValuePushdownWarm runs one prepared value-predicate plan
// repeatedly: its value fragment is materialised once, so an iteration
// is the semijoin alone.
func BenchmarkValuePushdownWarm(b *testing.B) { benchValuePushdown(b, false) }

// BenchmarkValuePushdownCold prepares the plan afresh in every
// iteration — parse, compile, the orderer's cardinality probe and the
// fragment's materialisation from the value index, then the run: what
// an ad-hoc query that misses the server's plan cache pays.
func BenchmarkValuePushdownCold(b *testing.B) { benchValuePushdown(b, true) }

// hitWriter is a reused in-process http.ResponseWriter, so a served
// hit's B/op is the handler's and the harness's request, not a recorder.
type hitWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *hitWriter) Header() http.Header         { return w.hdr }
func (w *hitWriter) WriteHeader(code int)        { w.code = code }
func (w *hitWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// benchServeHit measures a warm POST /query answered from the result
// cache, through Handler().ServeHTTP in-process on the smoke corpus:
// request decode, plan and result look-ups, response envelope, one
// Write. ns/node is the whole request over the nodes returned.
func benchServeHit(b *testing.B, body string) {
	cat := catalog.New(0)
	if err := cat.AddDocument("d", corpus.Doc(0.5)); err != nil {
		b.Fatal(err)
	}
	h := server.New(server.Config{Catalog: cat, CacheBytes: 64 << 20}).Handler()
	w := &hitWriter{hdr: http.Header{}}
	u := &url.URL{Path: "/query"}
	post := func() {
		w.code = 0
		w.body.Reset()
		h.ServeHTTP(w, &http.Request{
			Method: http.MethodPost, URL: u, Host: "bench", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Body: io.NopCloser(strings.NewReader(body)), ContentLength: int64(len(body)),
		})
		if w.code != http.StatusOK {
			b.Fatalf("status %d: %.200s", w.code, w.body.Bytes())
		}
	}
	post() // miss
	post() // first hit: the entry gets its encoding
	if !bytes.Contains(w.body.Bytes(), []byte(`"cached":true`)) {
		b.Fatalf("not a cache hit: %.200s", w.body.Bytes())
	}
	_, array, _ := bytes.Cut(w.body.Bytes(), []byte(`"nodes":[`))
	array, _, _ = bytes.Cut(array, []byte("]"))
	nodes := bytes.Count(array, []byte(",")) + 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
}

// BenchmarkServeHitSmall is the light class of the repository
// benchmark's serve_hot workload: a limited path, ten nodes.
func BenchmarkServeHitSmall(b *testing.B) {
	benchServeHit(b, `{"doc":"d","query":"/descendant::person/descendant::name","limit":10}`)
}

// BenchmarkServeHitLarge is its heavy class: every node of the document
// (about 9 000), where the parent spent 25 ns per node re-encoding.
func BenchmarkServeHitLarge(b *testing.B) {
	benchServeHit(b, `{"doc":"d","query":"/descendant::node()"}`)
}

// BenchmarkPlanCompile measures the plan pipeline alone — parse,
// logical build, rewrite, physical compilation for Q1, no execution —
// the per-request planner cost the server's caches amortise.
func BenchmarkPlanCompile(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Prepare(c.env, bench.Q1, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlanRunHeavy runs prepared plans whose cost is the batch
// kernels' own — the document-wide scans and the two-step paths of the
// repository benchmark's axes_batch workload — on a 16 MB document, out
// of L2, and reports B/op and ns per result node.
func BenchmarkPlanRunHeavy(b *testing.B) {
	for _, q := range []struct{ Name, Query string }{
		{"desc-node", "/descendant::node()"},
		{"text-anc-node", "/descendant::text()/ancestor::node()"},
		{"bidder-desc-increase", "/descendant::bidder/descendant::increase"},
		{"open_auction-desc-bidder", "/descendant::open_auction/descendant::bidder"},
	} {
		b.Run(q.Name, func(b *testing.B) {
			pl, err := plan.Prepare(plan.NewEnv(corpus.Doc(16)), q.Query, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			results := 0
			for i := 0; i < b.N; i++ {
				r, err := pl.RunRoot()
				if err != nil {
					b.Fatal(err)
				}
				results += len(r.Nodes)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(results), "ns/result")
		})
	}
}

// BenchmarkCursorDrain pulls k nodes through the cursor executor from
// the plans of the repository benchmark's stream_first_k workload whose
// cost is the cursor kernels' own, on the same 16 MB document: the two
// k = 10 000 drains, the two following steps that used to drain their
// context first, and a predicate path. It reports B/op, ns per result
// node and the staircase kernels' Scanned per result node.
func BenchmarkCursorDrain(b *testing.B) {
	for _, q := range []struct {
		name, query string
		k           int
	}{
		{"text-anc-node-10k", "/descendant::text()/ancestor::node()", 10000},
		{"increase-anc-bidder-10k", "/descendant::increase/ancestor::bidder", 10000},
		{"seller-fol-bidder-10", "/descendant::seller/following::bidder", 10},
		{"item-text-fol-keyword-10", "//item//text()/following::keyword", 10},
		{"person-pred-10", "//person[profile/education]", 10},
	} {
		b.Run(q.name, func(b *testing.B) {
			pl, err := plan.Prepare(plan.NewEnv(corpus.Doc(16)), q.query, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var results, scanned int64
			for i := 0; i < b.N; i++ {
				r, err := pl.RunLimitRoot(nil, q.k)
				if err != nil {
					b.Fatal(err)
				}
				results += int64(len(r.Nodes))
				for _, st := range r.Steps {
					scanned += st.Core.Scanned
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(results), "ns/result")
			b.ReportMetric(float64(scanned)/float64(results), "scanned/result")
		})
	}
}

// BenchmarkAdhocLightDrain drains, through the cursor executor, the four
// light query families of the repository benchmark's serve_adhoc
// workload on an 8 MB document, each on a freshly compiled plan so that
// everything a plan resolves once (fragments, certified sets) is paid in
// every iteration, as on a server miss. Besides ns/op it reports the
// wall time and the staircase Scanned of the step that holds the
// predicates (its duration nests the join below the filters).
func BenchmarkAdhocLightDrain(b *testing.B) {
	env := plan.NewEnv(corpus.ValueDoc(8))
	for _, q := range []struct{ name, query string }{
		{"initial-bidder-increase", "//open_auction[initial > 470]/bidder/increase"},
		{"price-seller", "//closed_auction[price < 32]/seller"},
		{"current-reserve-seller", "//open_auction[current > 470][reserve]/seller"},
		{"quantity-initial-bidder-itemref", "//open_auction[quantity = 2][initial > 470][bidder]/itemref"},
	} {
		b.Run(q.name, func(b *testing.B) {
			pq, err := xpath.ParseQuery(q.query)
			if err != nil {
				b.Fatal(err)
			}
			lg := plan.BuildLogical(pq)
			plan.Rewrite(lg)
			b.ReportAllocs()
			b.ResetTimer()
			var predNs, predScanned int64
			for i := 0; i < b.N; i++ {
				pl, err := plan.Compile(env, lg, nil)
				if err != nil {
					b.Fatal(err)
				}
				r, err := pl.RunLimitRoot(nil, math.MaxInt)
				if err != nil {
					b.Fatal(err)
				}
				predNs += r.Steps[0].Duration.Nanoseconds()
				predScanned += r.Steps[0].Core.Scanned
			}
			b.ReportMetric(float64(predNs)/float64(b.N), "pred-step-ns/op")
			b.ReportMetric(float64(predScanned)/float64(b.N), "pred-step-scanned/op")
		})
	}
}

// BenchmarkIndexBuild measures the one-off O(n) index construction the
// warm path amortises (also the in-memory cost of loading a v1/SCJ1
// file, which carries no index section).
func BenchmarkIndexBuild(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		for i := 0; i < b.N; i++ {
			ix := index.Build(c.d.KindSlice(), c.d.NameSlice(), c.d.Names().Len(), doc.NumKinds, doc.Elem)
			if ix.Entries() != int64(c.d.Size()) {
				b.Fatal("incomplete index")
			}
		}
		b.ReportMetric(float64(c.d.Size())/float64(b.Elapsed().Nanoseconds()/int64(b.N))*1000, "Mnodes/s")
	})
}

// BenchmarkLoadPath times the four stages of getting a document ready
// — shred the XML text, build the value index, write the SCJ2 encoding,
// read it back — on 16 MB XMark: the profiler's entry points for the
// load path. allocs/node is the number that says whether a stage still
// allocates per node.
func BenchmarkLoadPath(b *testing.B) {
	var text bytes.Buffer
	if err := xmark.Write(&text, xmark.Config{SizeMB: 16, Seed: 1, KeepValues: true}); err != nil {
		b.Fatal(err)
	}
	d, err := doc.Shred(bytes.NewReader(text.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	var bin bytes.Buffer
	if err := d.WriteBinary(&bin); err != nil {
		b.Fatal(err)
	}
	stage := func(name string, bytes int, f func() error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(bytes))
			b.ReportAllocs()
			allocs := testing.AllocsPerRun(1, func() {
				if err := f(); err != nil {
					b.Fatal(err)
				}
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(allocs/float64(d.Size()), "allocs/node")
		})
	}
	stage("shred", text.Len(), func() error {
		_, err := doc.Shred(bytes.NewReader(text.Bytes()))
		return err
	})
	stage("value-index", text.Len(), func() error {
		if d.RebuildValueIndex().Entries() != int64(d.Size()) {
			return fmt.Errorf("incomplete value index")
		}
		return nil
	})
	stage("write-binary", bin.Len(), func() error { return d.WriteBinary(io.Discard) })
	stage("read-binary", bin.Len(), func() error {
		_, err := doc.ReadBinary(bytes.NewReader(bin.Bytes()))
		return err
	})
}
