package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"staircase/internal/catalog"
	"staircase/internal/doc"
	"staircase/internal/engine"
	"staircase/internal/xmark"
	"staircase/internal/xpath"
)

// newTestServer builds a server over generated XMark documents: "mem"
// is pinned in memory, "disk" is registered from an XML file so the
// lazy-load path runs too. It returns the server, the HTTP test server,
// and a serial reference engine per document.
func newTestServer(t testing.TB, cacheBytes int64, opts ...catalog.Option) (*Server, *httptest.Server, map[string]*engine.Engine) {
	t.Helper()
	cat := catalog.New(0, opts...)
	ref := make(map[string]*engine.Engine)

	dm, err := xmark.Generate(xmark.Config{SizeMB: 0.08, Seed: 1, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddDocument("mem", dm); err != nil {
		t.Fatal(err)
	}
	ref["mem"] = engine.New(dm)

	path := filepath.Join(t.TempDir(), "disk.xml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := xmark.Write(f, xmark.Config{SizeMB: 0.12, Seed: 2, KeepValues: true}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("disk", path, catalog.FormatAuto); err != nil {
		t.Fatal(err)
	}
	h, err := cat.Open("disk")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	ref["disk"] = engine.New(h.Document())

	s := New(Config{Catalog: cat, CacheBytes: cacheBytes})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, ref
}

func postQuery(t testing.TB, url string, req QueryRequest) (QueryResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return out, resp.StatusCode
}

func sameNodes(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQuerySingleBatchAndCache(t *testing.T) {
	s, ts, ref := newTestServer(t, 1<<20)
	const q1 = "/descendant::profile/descendant::education"
	const q2 = "/descendant::increase/ancestor::bidder"

	want1, err := ref["mem"].EvalString(q1, nil)
	if err != nil {
		t.Fatal(err)
	}

	resp, code := postQuery(t, ts.URL, QueryRequest{Doc: "mem", Query: q1})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != 1 || resp.Results[0].Error != "" {
		t.Fatalf("results: %+v", resp.Results)
	}
	if resp.Results[0].Cached {
		t.Fatal("first evaluation reported cached")
	}
	if !sameNodes(resp.Results[0].Nodes, want1.Nodes) {
		t.Fatal("server nodes differ from engine nodes")
	}

	// Second time: cache hit, identical nodes.
	resp, _ = postQuery(t, ts.URL, QueryRequest{Doc: "mem", Query: q1})
	if !resp.Results[0].Cached {
		t.Fatal("repeat evaluation not served from cache")
	}
	if !sameNodes(resp.Results[0].Nodes, want1.Nodes) {
		t.Fatal("cached nodes differ")
	}
	if s.cacheHits.Load() == 0 {
		t.Fatal("no cache hits recorded")
	}

	// Batch: order preserved, one bad query fails alone.
	resp, code = postQuery(t, ts.URL, QueryRequest{Doc: "mem", Queries: []string{q2, "///", q1}})
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("batch returned %d results", len(resp.Results))
	}
	if resp.Results[0].Query != q2 || resp.Results[2].Query != q1 {
		t.Fatal("batch result order not preserved")
	}
	if resp.Results[1].Error == "" {
		t.Fatal("malformed query in batch did not report an error")
	}
	if resp.Results[1].Count != 0 || len(resp.Results[1].Nodes) != 0 {
		t.Fatal("failed query carried nodes")
	}
	if !sameNodes(resp.Results[2].Nodes, want1.Nodes) {
		t.Fatal("batch nodes differ")
	}

	// Limit stops the evaluation after the first node (streaming
	// executor): the response carries the prefix, count matches it,
	// and truncated reports that more results may exist. The truncated
	// result is cached under (plan, limit) — a full-result cache entry
	// must not be served.
	resp, _ = postQuery(t, ts.URL, QueryRequest{Doc: "mem", Query: q1, Limit: 1})
	r := resp.Results[0]
	if r.Count != 1 || len(r.Nodes) != 1 || !r.Truncated {
		t.Fatalf("limit handling: %+v", r)
	}
	if r.Nodes[0] != want1.Nodes[0] {
		t.Fatalf("limit returned %d, want prefix of %v", r.Nodes[0], want1.Nodes)
	}
	resp, _ = postQuery(t, ts.URL, QueryRequest{Doc: "mem", Query: q1, Limit: 1})
	r = resp.Results[0]
	if !r.Cached || r.Count != 1 || !r.Truncated {
		t.Fatalf("limited result not cached under its limit key: %+v", r)
	}
	// And the full result stays full after the limited run.
	resp, _ = postQuery(t, ts.URL, QueryRequest{Doc: "mem", Query: q1})
	if !sameNodes(resp.Results[0].Nodes, want1.Nodes) {
		t.Fatal("full result corrupted by limited cache entry")
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts, _ := newTestServer(t, 0)
	if _, code := postQuery(t, ts.URL, QueryRequest{Doc: "nope", Query: "/descendant::a"}); code != http.StatusNotFound {
		t.Fatalf("unknown doc: status %d", code)
	}
	if _, code := postQuery(t, ts.URL, QueryRequest{Doc: "mem"}); code != http.StatusBadRequest {
		t.Fatalf("empty query: status %d", code)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", resp.StatusCode)
	}
}

func TestExplainDocsHealthMetrics(t *testing.T) {
	_, ts, _ := newTestServer(t, 1<<20)
	get := func(path string) (string, int) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b), resp.StatusCode
	}
	body, code := get("/explain?doc=mem&q=/descendant::increase/ancestor::bidder")
	if code != http.StatusOK || !bytes.Contains([]byte(body), []byte("staircase join")) {
		t.Fatalf("explain: %d %q", code, body)
	}
	if _, code = get("/explain?doc=mem"); code != http.StatusBadRequest {
		t.Fatalf("explain without q: %d", code)
	}
	body, code = get("/docs")
	if code != http.StatusOK || !bytes.Contains([]byte(body), []byte(`"mem"`)) || !bytes.Contains([]byte(body), []byte(`"disk"`)) {
		t.Fatalf("docs: %d %q", code, body)
	}
	if body, code = get("/healthz"); code != http.StatusOK || !bytes.Contains([]byte(body), []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %q", code, body)
	}
	postQuery(t, ts.URL, QueryRequest{Doc: "mem", Query: "/descendant::person"})
	body, code = get("/metrics")
	if code != http.StatusOK || !bytes.Contains([]byte(body), []byte("xpathd_queries_total")) {
		t.Fatalf("metrics: %d %q", code, body)
	}
}

// xmarkTags is a slice of tag names the generator emits — the
// vocabulary for randomized queries.
var xmarkTags = []string{
	"person", "profile", "education", "bidder", "increase", "item",
	"open_auction", "closed_auction", "category", "keyword", "seller",
	"annotation", "description", "interest", "watch", "mail", "nosuchtag",
}

// randomQuery builds a parseable query from templates over the XMark
// vocabulary, covering all four partitioning axes, unions, predicates,
// and child/attribute steps.
func randomQuery(rng *rand.Rand) string {
	a := xmarkTags[rng.Intn(len(xmarkTags))]
	b := xmarkTags[rng.Intn(len(xmarkTags))]
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf("/descendant::%s", a)
	case 1:
		return fmt.Sprintf("/descendant::%s/ancestor::%s", a, b)
	case 2:
		return fmt.Sprintf("/descendant::%s/descendant::%s", a, b)
	case 3:
		return fmt.Sprintf("/descendant::%s/following::%s", a, b)
	case 4:
		return fmt.Sprintf("/descendant::%s/preceding::%s", a, b)
	case 5:
		return fmt.Sprintf("//%s[%s]", a, b)
	case 6:
		return fmt.Sprintf("/descendant::%s | /descendant::%s", a, b)
	default:
		return fmt.Sprintf("/descendant::%s/child::%s", a, b)
	}
}

// TestConcurrentClientsMatchSerial is the server-concurrency property
// test: N concurrent clients issue randomized (doc, query) batches and
// every result must be byte-identical to a serial engine.Eval of the
// same query — across cache hits and misses. Run under -race in CI.
func TestConcurrentClientsMatchSerial(t *testing.T) {
	_, ts, ref := newTestServer(t, 1<<20)

	// Serial reference results, memoized per (doc, query).
	var memoMu sync.Mutex
	memo := make(map[string][]int32)
	expect := func(docName, query string) []int32 {
		memoMu.Lock()
		nodes, ok := memo[docName+"\x00"+query]
		memoMu.Unlock()
		if ok {
			return nodes
		}
		r, err := ref[docName].EvalString(query, nil) // default options
		if err != nil {
			t.Errorf("reference eval %q: %v", query, err)
			return nil
		}
		memoMu.Lock()
		memo[docName+"\x00"+query] = r.Nodes
		memoMu.Unlock()
		return r.Nodes
	}

	const clients = 8
	reqs := 40
	if testing.Short() {
		reqs = 10
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			client := &http.Client{}
			for i := 0; i < reqs; i++ {
				docName := []string{"mem", "disk"}[rng.Intn(2)]
				n := 1 + rng.Intn(4)
				queries := make([]string, n)
				for j := range queries {
					queries[j] = randomQuery(rng)
				}
				req := QueryRequest{
					Doc:     docName,
					Queries: queries,
					NoCache: rng.Intn(3) == 0,
				}
				body, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
				for j, res := range out.Results {
					if res.Error != "" {
						t.Errorf("client %d: query %q: %s", c, queries[j], res.Error)
						continue
					}
					if want := expect(docName, queries[j]); !sameNodes(res.Nodes, want) {
						t.Errorf("client %d: %s %q: got %d nodes, want %d — results diverge from serial evaluation",
							c, docName, queries[j], len(res.Nodes), len(want))
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestWarmCacheThroughput checks what makes the warm path fast, in
// counters rather than on the clock (a q/s ratio over loopback is at
// the mercy of the host): every query of a warm round is a result-cache
// hit and executes no plan, while rounds that bypass the cache execute
// every query and touch the cache not at all.
func TestWarmCacheThroughput(t *testing.T) {
	cat := catalog.New(0)
	d, err := xmark.Generate(xmark.Config{SizeMB: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddDocument("x", d); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Catalog: cat, CacheBytes: 64 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	queries := make([]string, 0, 15)
	for _, tag := range []string{"education", "bidder", "increase", "item", "keyword"} {
		queries = append(queries,
			fmt.Sprintf("/descendant::profile/descendant::%s", tag),
			fmt.Sprintf("/descendant::%s/ancestor::open_auction", tag),
			fmt.Sprintf("/descendant::%s/following::bidder", tag),
		)
	}
	round := func(noCache, wantCached bool) {
		t.Helper()
		resp, code := postQuery(t, ts.URL, QueryRequest{Doc: "x", Queries: queries, NoCache: noCache, Limit: 4})
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		for _, r := range resp.Results {
			if r.Error != "" {
				t.Fatalf("query %q: %s", r.Query, r.Error)
			}
			if r.Cached != wantCached {
				t.Fatalf("query %q: cached=%v, want %v", r.Query, r.Cached, wantCached)
			}
		}
	}
	executions := func() int64 { return cat.Info()[0].Queries }
	n := int64(len(queries))

	const coldRounds, warmRounds = 3, 9
	for i := 0; i < coldRounds; i++ {
		round(true, false)
	}
	if hits, misses := s.cacheHits.Load(), s.cacheMisses.Load(); hits != 0 || misses != 0 {
		t.Fatalf("cold rounds touched the result cache: %d hits, %d misses", hits, misses)
	}
	if got := executions(); got != coldRounds*n {
		t.Fatalf("cold rounds executed %d plans, want %d", got, coldRounds*n)
	}
	round(false, false) // prime the cache: one miss and one execution per query
	primed := executions()
	for i := 0; i < warmRounds; i++ {
		round(false, true)
	}
	if hits, misses := s.cacheHits.Load(), s.cacheMisses.Load(); hits != warmRounds*n || misses != n {
		t.Fatalf("warm rounds: %d hits, %d misses, want %d and %d", hits, misses, warmRounds*n, n)
	}
	if got := executions(); got != primed {
		t.Fatalf("warm rounds executed %d plans, want 0", got-primed)
	}
}

// TestDocsReportIndexBytes: GET /docs must expose the tag/kind index
// footprint of resident documents, and /metrics the catalog total.
func TestDocsReportIndexBytes(t *testing.T) {
	_, ts, _ := newTestServer(t, 1<<20)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/docs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Docs []catalog.DocInfo `json:"docs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Docs) == 0 {
		t.Fatal("no docs")
	}
	for _, d := range out.Docs {
		if d.Resident && d.IndexBytes <= 0 {
			t.Fatalf("resident doc %q reports no index bytes: %+v", d.Name, d)
		}
		if d.Resident && d.Bytes <= d.IndexBytes {
			t.Fatalf("doc %q bytes %d must include index bytes %d on top of the encoding", d.Name, d.Bytes, d.IndexBytes)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("xpathd_catalog_index_bytes")) {
		t.Fatalf("metrics missing catalog_index_bytes:\n%s", body)
	}
}

// getExplain returns the body of a GET /explain that must answer 200.
func getExplain(t *testing.T, ts *httptest.Server, query string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/explain?doc=mem&q=" + url.QueryEscape(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain %s -> %d: %s", query, resp.StatusCode, b)
	}
	return string(b)
}

// TestExplainShowsIndexHit: /explain names the fragment source, and a
// server over a catalog without the tag/kind index plans without it.
func TestExplainShowsIndexHit(t *testing.T) {
	const q = "/descendant::profile/descendant::education"
	_, ts, _ := newTestServer(t, 1<<20)
	if out := getExplain(t, ts, q); !strings.Contains(out, "shared tag/kind index") {
		t.Fatalf("explain missing index-hit strategy:\n%s", out)
	}
	_, ts, _ = newTestServer(t, 1<<20, catalog.WithoutIndex())
	out := getExplain(t, ts, q)
	if !strings.Contains(out, " no-index") || !strings.Contains(out, "index disabled") ||
		strings.Contains(out, "shared tag/kind index") {
		t.Fatalf("explain over a catalog without the index:\n%s", out)
	}
}

// TestExplainShowsValueIndexSource: /explain names the value-fragment
// source for a comparison predicate, and a server over a catalog
// without the value index compiles it to a per-node PredFilter.
func TestExplainShowsValueIndexSource(t *testing.T) {
	const q = "//open_auction[current > 100]"
	_, ts, _ := newTestServer(t, 1<<20)
	if out := getExplain(t, ts, q); !strings.Contains(out, "value index (numeric range)") {
		t.Fatalf("explain missing value-index source:\n%s", out)
	}
	_, ts, _ = newTestServer(t, 1<<20, catalog.WithoutValueIndex())
	out := getExplain(t, ts, q)
	if !strings.Contains(out, "PredFilter") || strings.Contains(out, "value index") {
		t.Fatalf("explain missing per-node fallback:\n%s", out)
	}
}

// TestCatalogDecidesIndexUse: the catalog's index settings alone decide
// whether a query reads an index. Over catalogs with and without each
// index, a pushdown query and a value-predicate query answer alike, no
// query builds an index the catalog does not keep, and /metrics charges
// exactly the index bytes the document holds.
func TestCatalogDecidesIndexUse(t *testing.T) {
	queries := []string{
		"/descendant::open_auction/descendant::bidder",
		"//open_auction[initial > 100]",
	}
	var want [][]int32
	for _, c := range []struct{ noIndex, noVIndex bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	} {
		var opts []catalog.Option
		if c.noIndex {
			opts = append(opts, catalog.WithoutIndex())
		}
		if c.noVIndex {
			opts = append(opts, catalog.WithoutValueIndex())
		}
		s, ts, _ := newTestServer(t, 0, opts...)
		for i, q := range queries {
			out, code := postQuery(t, ts.URL, QueryRequest{Doc: "disk", Query: q})
			if code != http.StatusOK || out.Results[0].Error != "" {
				t.Fatalf("%+v %s: status %d %+v", c, q, code, out.Results)
			}
			if len(want) <= i {
				want = append(want, out.Results[0].Nodes)
			} else if !sameNodes(out.Results[0].Nodes, want[i]) {
				t.Fatalf("%+v %s: %d nodes, default catalog %d", c, q, out.Results[0].Count, len(want[i]))
			}
		}
		h, err := s.cat.Open("disk")
		if err != nil {
			t.Fatal(err)
		}
		d := h.Document()
		h.Close()
		if d.IndexBuilt() == c.noIndex || d.ValueIndexBuilt() == c.noVIndex {
			t.Errorf("%+v: index built %v, value index built %v", c, d.IndexBuilt(), d.ValueIndexBuilt())
		}
		if got := scrapeMetric(t, ts.URL, "xpathd_catalog_index_bytes"); got != d.IndexBytes() {
			t.Errorf("%+v: /metrics index bytes %d, document holds %d", c, got, d.IndexBytes())
		}
		if got := scrapeMetric(t, ts.URL, "xpathd_catalog_value_index_bytes"); got != d.ValueIndexBytes() {
			t.Errorf("%+v: /metrics value index bytes %d, document holds %d", c, got, d.ValueIndexBytes())
		}
	}
}

// TestEquivalentQueriesShareCacheEntries: the result cache keys on the
// canonical optimized-plan string, so differently spelled but
// plan-equivalent queries must hit one shared entry, while the
// prepared-plan cache stays per query text.
func TestEquivalentQueriesShareCacheEntries(t *testing.T) {
	s, ts, ref := newTestServer(t, 1<<20)
	defer ts.Close()

	post := func(query string) QueryResult {
		body, _ := json.Marshal(QueryRequest{Doc: "mem", Query: query})
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if len(out.Results) != 1 || out.Results[0].Error != "" {
			t.Fatalf("%s: %+v", query, out.Results)
		}
		return out.Results[0]
	}

	// Three spellings of one plan: the abbreviation, its expansion,
	// and the predicate-conjunction split.
	groups := [][]string{
		{"//person/profile", "/descendant-or-self::node()/child::person/child::profile"},
		{"//person[profile and name]", "//person[profile][name]"},
	}
	for _, group := range groups {
		h0 := s.cacheHits.Load()
		first := post(group[0])
		if first.Cached {
			t.Fatalf("%s: first evaluation already cached", group[0])
		}
		for _, alt := range group[1:] {
			res := post(alt)
			if !res.Cached {
				t.Fatalf("%s did not hit the cache entry of %s", alt, group[0])
			}
			if res.Count != first.Count {
				t.Fatalf("%s: %d nodes, want %d", alt, res.Count, first.Count)
			}
		}
		h1 := s.cacheHits.Load()
		if h1-h0 != int64(len(group)-1) {
			t.Fatalf("cache hits %d, want %d", h1-h0, len(group)-1)
		}
		// Equivalence is real: the reference engine agrees.
		want, err := ref["mem"].EvalString(group[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		if first.Count != len(want.Nodes) {
			t.Fatalf("server %d nodes, engine %d", first.Count, len(want.Nodes))
		}
	}

	// Distinct semantics must NOT collide: //site excludes the root
	// element, /descendant::site includes it.
	a := post("//site")
	b := post("/descendant::site")
	if b.Cached {
		t.Fatal("/descendant::site wrongly shared a cache entry with //site")
	}
	if a.Count == b.Count {
		t.Fatalf("expected distinct results, both %d", a.Count)
	}

	// The prepared-plan cache serves repeats of the same text: the
	// second request admits the plan, the third hits it.
	post("//person/profile")
	ph0 := s.planHits.Load()
	post("//person/profile")
	ph1 := s.planHits.Load()
	if ph1 <= ph0 {
		t.Fatal("repeat query did not hit the prepared-plan cache")
	}
}

// TestExplainJSONFormat: GET /explain?format=json returns the plan
// tree with operators and canonical string.
func TestExplainJSONFormat(t *testing.T) {
	_, ts, _ := newTestServer(t, 1<<20)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/explain?doc=mem&format=json&q=%2Fdescendant%3A%3Aincrease%2Fancestor%3A%3Abidder")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("explain json: %d %s", resp.StatusCode, b)
	}
	var tree struct {
		Canon    string `json:"canon"`
		Pushdown string `json:"pushdown"`
		Root     *struct {
			Op       string          `json:"op"`
			Children json.RawMessage `json:"children"`
		} `json:"root"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		t.Fatal(err)
	}
	if tree.Canon == "" || tree.Pushdown != "auto" || tree.Root == nil || tree.Root.Op == "" {
		t.Fatalf("explain json incomplete: %+v", tree)
	}
}

// TestOnceOnlyQueriesRetainNoPlans: the prepared-plan cache admits a
// plan on its key's second request within maxPrepared distinct keys.
// Queries asked once leave no entry behind, a query asked twice in a row
// is admitted, and of two keys that recur, the one maxPrepared-1 other
// keys apart is admitted and the one maxPrepared apart is not.
func TestOnceOnlyQueriesRetainNoPlans(t *testing.T) {
	cat := catalog.New(0)
	d, err := doc.ShredString(`<r><a>1</a><a>2</a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddDocument("d", d); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Catalog: cat, CacheBytes: 1 << 20})
	h, err := cat.Open("d")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	next := 0
	ask := func(k int) {
		t.Helper()
		if _, err := s.prepare(h, fmt.Sprintf("//a[. > %d]", k), new([]byte)); err != nil {
			t.Fatal(err)
		}
	}
	askNew := func(n int) {
		for range n {
			ask(next)
			next++
		}
	}
	entries := func() string {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "xpathd_plan_cache_entries "); ok {
				return v
			}
		}
		t.Fatalf("no xpathd_plan_cache_entries in /metrics:\n%s", rec.Body)
		return ""
	}

	askNew(maxPrepared + 1)
	if n := entries(); n != "0" {
		t.Fatalf("%d queries asked once each left %s plans cached, want 0", maxPrepared+1, n)
	}
	twice := next
	askNew(1)
	ask(twice)
	if n := entries(); n != "1" {
		t.Fatalf("a query asked twice in a row: %s plans cached, want 1", n)
	}
	near := next
	askNew(1)
	askNew(maxPrepared - 1)
	ask(near)
	if n := entries(); n != "2" {
		t.Fatalf("a key recurring %d keys apart: %s plans cached, want 2", maxPrepared-1, n)
	}
	far := next
	askNew(1)
	askNew(maxPrepared)
	ask(far)
	if n := entries(); n != "2" {
		t.Fatalf("a key recurring %d keys apart: %s plans cached, want still 2", maxPrepared, n)
	}
}

// TestStalePreparedPlansDropOnReload: a document reload (generation
// bump) must evict the previous generation's cached plans — they pin
// the old document copy in memory.
func TestStalePreparedPlansDropOnReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.xml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := xmark.Write(f, xmark.Config{SizeMB: 0.05, Seed: 3, KeepValues: true}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cat := catalog.New(1) // 1-byte budget: every unreferenced doc evicts
	if err := cat.Register("d", path, catalog.FormatAuto); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Catalog: cat, CacheBytes: 1 << 20})

	query := func() uint64 {
		h, err := cat.Open("d")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		gen := h.Generation()
		// Twice each: the plan cache admits a plan on its second request.
		for range 2 {
			for _, q := range []string{"//person", "//bidder", "//increase"} {
				if _, err := s.prepare(h, q, new([]byte)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return gen
	}
	g1 := query()
	g2 := query() // budget forced an eviction in between: generation bumped
	if g2 == g1 {
		t.Fatalf("expected a reload, generations %d == %d", g1, g2)
	}
	s.preparedMu.Lock()
	defer s.preparedMu.Unlock()
	if n := len(s.prepared); n != 3 {
		t.Fatalf("prepared cache holds %d entries, want 3 (stale generation dropped)", n)
	}
	for _, el := range s.prepared {
		if e := el.Value.(*preparedEntry); e.gen != g2 {
			t.Fatalf("stale plan survived: %s gen %d (current %d)", e.key, e.gen, g2)
		}
	}
}

// TestHostileQueryRejected: a query past the parser's nesting limit
// (//a[a[…]], 500 deep) is a 400 naming the limit on /query, /stream and
// /explain — the parser refuses it before any plan compiles — while a
// query at the limit still answers 200.
func TestHostileQueryRejected(t *testing.T) {
	_, ts, _ := newTestServer(t, 1<<20)
	nested := func(n int) string { return "//a" + strings.Repeat("[a", n) + strings.Repeat("]", n) }
	do := func(endpoint, q string) (int, string) {
		var resp *http.Response
		var err error
		if endpoint == "/explain" {
			resp, err = http.Get(ts.URL + "/explain?doc=mem&q=" + url.QueryEscape(q))
		} else {
			body, _ := json.Marshal(QueryRequest{Doc: "mem", Query: q})
			resp, err = http.Post(ts.URL+endpoint, "application/json", bytes.NewReader(body))
		}
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	for _, endpoint := range []string{"/query", "/stream", "/explain"} {
		if code, body := do(endpoint, nested(500)); code != http.StatusBadRequest || !strings.Contains(body, "depth limit") {
			t.Errorf("%s, 500 nested predicates: status %d, body %.120q; want 400 naming the depth limit", endpoint, code, body)
		}
		if code, body := do(endpoint, nested(xpath.MaxDepth)); code != http.StatusOK {
			t.Errorf("%s, %d nested predicates: status %d, body %.120q; want 200", endpoint, xpath.MaxDepth, code, body)
		}
	}
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
	_, ts, _ := newTestServer(t, 1<<20)
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
