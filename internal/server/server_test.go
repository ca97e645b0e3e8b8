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
	"sync"
	"testing"

	"staircase/internal/catalog"
	"staircase/internal/engine"
	"staircase/internal/xmark"
)

// newTestServer builds a server over generated XMark documents: "mem"
// is pinned in memory, "disk" is registered from an XML file so the
// lazy-load path runs too. It returns the server, the HTTP test server,
// and a serial reference engine per document.
func newTestServer(t testing.TB, cacheBytes int64) (*Server, *httptest.Server, map[string]*engine.Engine) {
	t.Helper()
	cat := catalog.New(0)
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
	if hits, _ := s.CacheStats(); hits == 0 {
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
	if _, code := postQuery(t, ts.URL, QueryRequest{
		Doc: "mem", Query: "/descendant::a",
		Options: &QueryOptions{Strategy: "quantum"},
	}); code != http.StatusBadRequest {
		t.Fatalf("bad strategy: status %d", code)
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
	body, code := get("/explain?doc=mem&q=/descendant::increase/ancestor::bidder&parallelism=2")
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

var propStrategies = []string{"staircase", "staircase-skip", "staircase-noskip", "sql", "sql-window"}

// TestConcurrentClientsMatchSerial is the server-concurrency property
// test: N concurrent clients issue randomized (doc, query, options)
// batches and every result must be byte-identical to a serial
// engine.Eval of the same query — across strategies, pushdown modes,
// parallelism degrees, and cache hits/misses. Run under -race in CI.
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
		r, err := ref[docName].EvalString(query, nil) // serial defaults
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
					Options: &QueryOptions{
						Strategy:    propStrategies[rng.Intn(len(propStrategies))],
						Pushdown:    []string{"auto", "always", "never"}[rng.Intn(3)],
						Parallelism: []int{0, 2, 4, -1}[rng.Intn(4)],
					},
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
						t.Errorf("client %d: %s %q (%+v): got %d nodes, want %d — results diverge from serial evaluation",
							c, docName, queries[j], *req.Options, len(res.Nodes), len(want))
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
	if hits, misses := s.CacheStats(); hits != 0 || misses != 0 {
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
	if hits, misses := s.CacheStats(); hits != warmRounds*n || misses != n {
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

// TestExplainShowsIndexHit: /explain names the fragment source and the
// noIndex query parameter flips it to the scan fallback.
func TestExplainShowsIndexHit(t *testing.T) {
	_, ts, _ := newTestServer(t, 1<<20)
	defer ts.Close()

	get := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s -> %d: %s", url, resp.StatusCode, b)
		}
		return string(b)
	}
	q := "/explain?doc=mem&pushdown=always&q=" + "%2Fdescendant%3A%3Aprofile%2Fdescendant%3A%3Aeducation"
	out := get(ts.URL + q)
	if !bytes.Contains([]byte(out), []byte("shared tag/kind index")) {
		t.Fatalf("explain missing index-hit strategy:\n%s", out)
	}
	out = get(ts.URL + q + "&noIndex=true")
	if !bytes.Contains([]byte(out), []byte("name-column scan, index disabled")) {
		t.Fatalf("explain missing scan fallback:\n%s", out)
	}
}

// TestQueryNoIndexMatchesDefault: the noIndex request knob must not
// change any result (and must not poison the shared result cache with
// a different key space — both run through the same cache).
func TestQueryNoIndexMatchesDefault(t *testing.T) {
	_, ts, ref := newTestServer(t, 0) // cache disabled: both paths evaluate
	defer ts.Close()

	for _, q := range []string{
		"/descendant::profile/descendant::education",
		"/descendant::increase/ancestor::bidder",
		"//person/name/text()",
	} {
		want, err := ref["mem"].EvalString(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, noIndex := range []bool{false, true} {
			body, _ := json.Marshal(QueryRequest{
				Doc:     "mem",
				Query:   q,
				Options: &QueryOptions{NoIndex: noIndex, Pushdown: "always"},
			})
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var out QueryResponse
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Results) != 1 || out.Results[0].Error != "" {
				t.Fatalf("bad response: %+v", out)
			}
			if out.Results[0].Count != len(want.Nodes) {
				t.Fatalf("%s noIndex=%v: %d nodes, want %d", q, noIndex, out.Results[0].Count, len(want.Nodes))
			}
		}
	}
}

// TestQueryNoValueIndexMatchesDefault: the noValueIndex request knob
// must not change any result of a value-predicate query (index-served
// fragments and per-node re-evaluation are property-tested equal; this
// pins the HTTP threading of the knob).
func TestQueryNoValueIndexMatchesDefault(t *testing.T) {
	_, ts, ref := newTestServer(t, 0) // cache disabled: both paths evaluate
	defer ts.Close()

	for _, q := range []string{
		"//open_auction[current > 100]",
		"//person[contains(name, 'a')]/name",
		"//bidder[increase >= 10]",
	} {
		want, err := ref["mem"].EvalString(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, noVIdx := range []bool{false, true} {
			out, code := postQuery(t, ts.URL, QueryRequest{
				Doc:     "mem",
				Query:   q,
				Options: &QueryOptions{NoValueIndex: noVIdx},
			})
			if code != http.StatusOK {
				t.Fatalf("%s noValueIndex=%v: status %d", q, noVIdx, code)
			}
			if len(out.Results) != 1 || out.Results[0].Error != "" {
				t.Fatalf("bad response: %+v", out)
			}
			if out.Results[0].Count != len(want.Nodes) {
				t.Fatalf("%s noValueIndex=%v: %d nodes, want %d",
					q, noVIdx, out.Results[0].Count, len(want.Nodes))
			}
		}
	}
}

// TestExplainShowsValueIndexSource: /explain names the value-fragment
// source for a comparison predicate and the noValueIndex parameter
// flips it to the per-node fallback.
func TestExplainShowsValueIndexSource(t *testing.T) {
	_, ts, _ := newTestServer(t, 1<<20)
	defer ts.Close()

	get := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s -> %d: %s", url, resp.StatusCode, b)
		}
		return string(b)
	}
	q := "/explain?doc=mem&q=" + url.QueryEscape("//open_auction[current > 100]")
	out := get(ts.URL + q)
	if !bytes.Contains([]byte(out), []byte("value index (numeric range)")) {
		t.Fatalf("explain missing value-index source:\n%s", out)
	}
	out = get(ts.URL + q + "&noValueIndex=true")
	if !bytes.Contains([]byte(out), []byte("value index disabled")) {
		t.Fatalf("explain missing per-node fallback:\n%s", out)
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
		h0, _ := s.CacheStats()
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
		h1, _ := s.CacheStats()
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

	// The prepared-plan cache serves repeats of the same text.
	ph0, _ := s.PlanCacheStats()
	post("//person/profile")
	ph1, _ := s.PlanCacheStats()
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
		Strategy string `json:"strategy"`
		Root     *struct {
			Op       string          `json:"op"`
			Children json.RawMessage `json:"children"`
		} `json:"root"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		t.Fatal(err)
	}
	if tree.Canon == "" || tree.Strategy != "staircase" || tree.Root == nil || tree.Root.Op == "" {
		t.Fatalf("explain json incomplete: %+v", tree)
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
		for _, q := range []string{"//person", "//bidder", "//increase"} {
			if _, err := s.prepare(h, q, &engine.Options{Parallelism: 1}, new([]byte)); err != nil {
				t.Fatal(err)
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
