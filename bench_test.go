// Package staircase_test hosts the testing.B benchmarks that regenerate
// the paper's tables and figures (one benchmark family per artifact).
// `go test ./bench -run Paper -v` prints the same quantities as tables
// and holds their counts to bench/testdata/paper_golden.json.
//
// Benchmarks report, besides ns/op, the work counters the paper plots
// (nodes scanned, duplicates, keys touched) via b.ReportMetric.
package staircase_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"

	"staircase/bench"
	"staircase/internal/axis"
	"staircase/internal/baseline"
	"staircase/internal/catalog"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/engine"
	"staircase/internal/index"
	"staircase/internal/server"
	"staircase/internal/xmark"
)

// benchSizes is the document sweep for benchmarks (MB equivalents).
// The paper sweeps 1.1–1111 MB; keep the benchmark suite laptop-fast
// and use cmd/benchrun -sizes for bigger sweeps.
var benchSizes = []float64{0.5, 2}

var (
	corpus   = bench.NewCorpus()
	ctxMu    sync.Mutex
	ctxCache = map[float64]benchCtx{}
)

type benchCtx struct {
	d         *doc.Document
	profiles  []int32
	increases []int32
	eng       *engine.Engine
}

func getCtx(b *testing.B, mb float64) benchCtx {
	b.Helper()
	ctxMu.Lock()
	defer ctxMu.Unlock()
	if c, ok := ctxCache[mb]; ok {
		return c
	}
	d := corpus.Doc(mb)
	e := engine.New(d)
	prof, err := e.EvalString("/descendant::profile", nil)
	if err != nil {
		b.Fatal(err)
	}
	inc, err := e.EvalString("/descendant::increase", nil)
	if err != nil {
		b.Fatal(err)
	}
	c := benchCtx{d: d, profiles: prof.Nodes, increases: inc.Nodes, eng: e}
	ctxCache[mb] = c
	return c
}

func forSizes(b *testing.B, f func(b *testing.B, c benchCtx)) {
	for _, mb := range benchSizes {
		b.Run(fmt.Sprintf("%gMB", mb), func(b *testing.B) {
			c := getCtx(b, mb)
			f(b, c)
		})
	}
}

// --- Table 1: full query evaluation ----------------------------------------

func BenchmarkTable1Q1(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		for i := 0; i < b.N; i++ {
			r, err := c.eng.EvalString(bench.Q1, nil)
			if err != nil {
				b.Fatal(err)
			}
			_ = r
		}
	})
}

func BenchmarkTable1Q2(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		for i := 0; i < b.N; i++ {
			if _, err := c.eng.EvalString(bench.Q2, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 3: the SQL region-query plan ------------------------------------

func BenchmarkFig3SQLPlan(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		sqlEng := baseline.NewSQLEngine(c.d)
		ctx := []int32{c.increases[0]}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := sqlEng.Step(axis.Following, ctx, baseline.SQLOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sqlEng.Step(axis.Descendant, f, baseline.SQLOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(sqlEng.Stats.KeysScanned)/float64(b.N), "keys/op")
	})
}

func BenchmarkFig3Staircase(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		ctx := []int32{c.increases[0]}
		for i := 0; i < b.N; i++ {
			f := core.FollowingJoin(c.d, ctx, nil)
			core.DescendantJoin(c.d, f, nil)
		}
	})
}

// --- Figure 11 (a): duplicates (Q2 ancestor step) ---------------------------

func BenchmarkFig11aNaive(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		var st baseline.NaiveStats
		for i := 0; i < b.N; i++ {
			st = baseline.NaiveStats{}
			baseline.NaiveJoin(c.d, axis.Ancestor, c.increases, &st)
		}
		b.ReportMetric(float64(st.Duplicates), "dups/op")
	})
}

func BenchmarkFig11aStaircase(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		for i := 0; i < b.N; i++ {
			core.AncestorJoin(c.d, c.increases, nil)
		}
	})
}

// --- Figure 11 (b): Q2 staircase scaling ------------------------------------

func BenchmarkFig11bStaircaseQ2(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		opts := &engine.Options{Strategy: engine.Staircase, Pushdown: engine.PushNever}
		for i := 0; i < b.N; i++ {
			if _, err := c.eng.EvalString(bench.Q2, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figures 11 (c)/(d): skipping variants (Q1 step 2) ----------------------

func benchVariant(b *testing.B, v core.Variant) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			st = core.Stats{}
			core.DescendantJoin(c.d, c.profiles, &core.Options{Variant: v, Stats: &st})
		}
		b.ReportMetric(float64(st.Scanned), "scanned/op")
		b.ReportMetric(float64(st.Skipped), "skipped/op")
	})
}

func BenchmarkFig11cdNoSkip(b *testing.B)       { benchVariant(b, core.NoSkip) }
func BenchmarkFig11cdSkip(b *testing.B)         { benchVariant(b, core.Skip) }
func BenchmarkFig11cdSkipEstimate(b *testing.B) { benchVariant(b, core.SkipEstimate) }

// --- Figures 11 (e)/(f): engine comparison ----------------------------------

func benchEngineQuery(b *testing.B, query string, opts *engine.Options) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		for i := 0; i < b.N; i++ {
			if _, err := c.eng.EvalString(query, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig11eQ1Staircase(b *testing.B) {
	benchEngineQuery(b, bench.Q1, &engine.Options{Strategy: engine.Staircase, Pushdown: engine.PushNever})
}

func BenchmarkFig11eQ1EarlyNametest(b *testing.B) {
	benchEngineQuery(b, bench.Q1, &engine.Options{Strategy: engine.Staircase, Pushdown: engine.PushAlways})
}

func BenchmarkFig11eQ1SQL(b *testing.B) {
	benchEngineQuery(b, bench.Q1, &engine.Options{Strategy: engine.SQL})
}

func BenchmarkFig11fQ2Staircase(b *testing.B) {
	benchEngineQuery(b, bench.Q2, &engine.Options{Strategy: engine.Staircase, Pushdown: engine.PushNever})
}

func BenchmarkFig11fQ2EarlyNametest(b *testing.B) {
	benchEngineQuery(b, bench.Q2, &engine.Options{Strategy: engine.Staircase, Pushdown: engine.PushAlways})
}

func BenchmarkFig11fQ2SQL(b *testing.B) {
	benchEngineQuery(b, bench.Q2, &engine.Options{Strategy: engine.SQL})
}

// --- §2.1: Equation (1) window on the SQL plan -------------------------------

func benchSQLWindow(b *testing.B, useWindow bool) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		sqlEng := baseline.NewSQLEngine(c.d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sqlEng.Step(axis.Descendant, c.profiles,
				baseline.SQLOptions{UseWindow: useWindow}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(sqlEng.Stats.KeysScanned)/float64(b.N), "keys/op")
	})
}

func BenchmarkSQLWindowOff(b *testing.B) { benchSQLWindow(b, false) }
func BenchmarkSQLWindowOn(b *testing.B)  { benchSQLWindow(b, true) }

// --- §6 extensions -----------------------------------------------------------

func BenchmarkFragmentationQ1(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		c.d.TagIndex()
		steps := []bench.TagStep{
			{Axis: axis.Descendant, Tag: "profile"},
			{Axis: axis.Descendant, Tag: "education"},
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bench.TagPath(c.d, steps, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchParallelJoin times the partition-parallel staircase join against
// the serial join on one axis: the "serial" sub-benchmark is the
// baseline, "workers=N" the parallel runs. On a multi-core host the
// descendant-axis family shows the §3.2/§6 speedup (the partitions scan
// disjoint document regions, so the join scales with cores until memory
// bandwidth saturates); expect ≥1.5x with 4+ workers.
func benchParallelJoin(b *testing.B, a axis.Axis, context func(benchCtx) []int32) {
	c := getCtx(b, benchSizes[len(benchSizes)-1])
	ctx := context(c)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Join(c.d, a, ctx, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ParallelJoin(c.d, a, ctx, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelDescendant(b *testing.B) {
	benchParallelJoin(b, axis.Descendant, func(c benchCtx) []int32 { return c.profiles })
}

func BenchmarkParallelAncestor(b *testing.B) {
	benchParallelJoin(b, axis.Ancestor, func(c benchCtx) []int32 { return c.increases })
}

func BenchmarkParallelFollowing(b *testing.B) {
	benchParallelJoin(b, axis.Following, func(c benchCtx) []int32 { return c.increases })
}

func BenchmarkParallelPreceding(b *testing.B) {
	benchParallelJoin(b, axis.Preceding, func(c benchCtx) []int32 { return c.increases })
}

// BenchmarkParallelEngineQ1 measures end-to-end query evaluation with
// the engine's Parallelism option (cost model included), serial vs
// parallel, on the descendant-heavy Q1.
func BenchmarkParallelEngineQ1(b *testing.B) {
	for _, par := range []int{0, 4} {
		name := "serial"
		if par > 0 {
			name = fmt.Sprintf("parallelism=%d", par)
		}
		b.Run(name, func(b *testing.B) {
			c := getCtx(b, benchSizes[len(benchSizes)-1])
			opts := &engine.Options{Strategy: engine.Staircase, Pushdown: engine.PushNever, Parallelism: par}
			for i := 0; i < b.N; i++ {
				if _, err := c.eng.EvalString(bench.Q1, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- tag/kind index: zero-rescan pushdown ------------------------------------

// BenchmarkEnginePushdownWarm measures Q1 with name-test pushdown
// served by the shared per-document index (the steady state every
// query after document load sees).
func BenchmarkEnginePushdownWarm(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		c.d.TagIndex() // warm outside the timed loop
		opts := &engine.Options{Pushdown: engine.PushAlways}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.eng.EvalString(bench.Q1, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEnginePushdownCold measures the rescan baseline: every
// pushed step rebuilds its tag fragment with an O(n) name-column scan,
// which is what each cold engine (per doc load, per xpathd reload)
// used to pay before the index became a shared document structure.
func BenchmarkEnginePushdownCold(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		opts := &engine.Options{Pushdown: engine.PushAlways, NoIndex: true}
		for i := 0; i < b.N; i++ {
			if _, err := c.eng.EvalString(bench.Q1, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
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
			e := engine.New(d)
			p, err := e.PrepareString(valueRange, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					if p, err = e.PrepareString(valueRange, nil); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := p.Run(); err != nil {
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
	h := server.New(server.Config{Catalog: cat, CacheBytes: 64 << 20, ShareScans: true}).Handler()
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
			cq, err := engine.Compile(bench.Q1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.eng.Prepare(cq, nil); err != nil {
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
			pl, err := engine.New(corpus.Doc(16)).PrepareString(q.Query, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			results := 0
			for i := 0; i < b.N; i++ {
				r, err := pl.Plan().RunRoot()
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
			pl, err := engine.New(corpus.Doc(16)).PrepareString(q.query, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var results, scanned int64
			for i := 0; i < b.N; i++ {
				r, err := pl.Plan().RunLimitRoot(nil, q.k)
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

// --- §4.2 ablation: copy phase vs scan phase ---------------------------------

func BenchmarkCopyVsScanCopyPhase(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		root := []int32{c.d.Root()}
		o := &core.Options{Variant: core.SkipEstimate, Emit: core.Emit{Kinds: core.AllKinds}}
		for i := 0; i < b.N; i++ {
			core.DescendantJoin(c.d, root, o)
		}
	})
}

func BenchmarkCopyVsScanScanPhase(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		root := []int32{c.d.Root()}
		o := &core.Options{Variant: core.NoSkip, Emit: core.Emit{Kinds: core.AllKinds}}
		for i := 0; i < b.N; i++ {
			core.DescendantJoin(c.d, root, o)
		}
	})
}

// --- §5: MPMGJN comparison ----------------------------------------------------

func BenchmarkMPMGJNAncestor(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		var st baseline.MPMGJNStats
		for i := 0; i < b.N; i++ {
			st = baseline.MPMGJNStats{}
			baseline.MPMGJNAncestor(c.d, c.increases, &st)
		}
		b.ReportMetric(float64(st.Touched), "touched/op")
	})
}

func BenchmarkIndexedStructuralJoin(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		tree := bench.NewPrePostTree(c.d)
		var st baseline.IndexJoinStats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st = baseline.IndexJoinStats{}
			baseline.IndexedDescendantJoin(c.d, tree, c.profiles, &st)
		}
		b.ReportMetric(float64(st.Touched), "touched/op")
		b.ReportMetric(float64(st.Probes), "probes/op")
	})
}

func BenchmarkStaircaseAncestorVsMPMGJN(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			st = core.Stats{}
			core.AncestorJoin(c.d, c.increases, &core.Options{Variant: core.Skip, Stats: &st})
		}
		b.ReportMetric(float64(st.Scanned), "touched/op")
	})
}

// --- design-choice ablations ---------------------------------------------------

// BenchmarkPrunePrePass measures the join with its pruning pre-pass over
// a context that is already a staircase (the pass returns it uncopied;
// the on-the-fly variant of §3.2 it used to be compared with is gone).
func BenchmarkPrunePrePass(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		o := &core.Options{Variant: core.SkipEstimate}
		for i := 0; i < b.N; i++ {
			core.DescendantJoin(c.d, c.increases, o)
		}
	})
}
