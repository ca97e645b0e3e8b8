package staircase_test

// Tests of the public staircase package: the API surface cmd/ and
// examples/ build against. Everything here goes through exported
// symbols only — no internal imports beyond the reference comparison.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"staircase"
)

const apiFixture = `
<site>
  <people>
    <person id="p1"><name>Alice</name><profile><education>PhD</education></profile></person>
    <person id="p2"><name>Bob</name></person>
  </people>
  <open_auctions>
    <open_auction><bidder><increase>5</increase></bidder></open_auction>
    <open_auction><current>7</current></open_auction>
  </open_auctions>
</site>`

func TestPublicDocumentAndQuery(t *testing.T) {
	d, err := staircase.ParseXML(apiFixture)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() == 0 || d.Height() == 0 {
		t.Fatalf("document empty: %d nodes height %d", d.NumNodes(), d.Height())
	}
	res, err := d.Query("//person/name", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("names = %d", len(res.Nodes))
	}
	if v := d.StringValue(res.Nodes[0]); v != "Alice" {
		t.Fatalf("first name %q", v)
	}
	if k := d.Kind(res.Nodes[0]); k != staircase.ElemNode {
		t.Fatalf("kind %v", k)
	}
	rel, err := d.QueryFrom(res.Nodes[:1], "parent::person/@id", nil)
	if err != nil || len(rel.Nodes) != 1 {
		t.Fatalf("relative eval: %v %v", rel, err)
	}
	if d.Value(rel.Nodes[0]) != "p1" {
		t.Fatalf("attr value %q", d.Value(rel.Nodes[0]))
	}
	if len(res.Steps) == 0 {
		t.Fatal("no step reports")
	}
}

func TestPublicPlanSurface(t *testing.T) {
	d, err := staircase.ParseXML(apiFixture)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Prepare("//open_auction[bidder]", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil || len(res.Nodes) != 1 {
		t.Fatalf("plan run: %v %v", res, err)
	}
	if p.Canon() == "" {
		t.Fatal("empty canonical plan")
	}
	if len(p.Rewrites()) == 0 {
		t.Fatalf("expected rewrites for //open_auction[bidder], got none")
	}
	text, err := p.Explain()
	if err != nil || !strings.Contains(text, "StaircaseJoin") {
		t.Fatalf("explain: %v\n%s", err, text)
	}
	// Equivalent spelling, same canonical plan.
	p2, err := d.Prepare("/descendant-or-self::node()/child::open_auction[bidder]", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Canon() != p.Canon() {
		t.Fatalf("canon mismatch:\n %s\n %s", p.Canon(), p2.Canon())
	}
	out, err := p.ExplainJSON()
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(out, &tree); err != nil {
		t.Fatalf("explain json: %v", err)
	}
	if tree["canon"] == "" || tree["root"] == nil {
		t.Fatalf("explain json incomplete: %v", tree)
	}
}

func TestPublicStreamingSurface(t *testing.T) {
	d, err := staircase.GenerateXMark(0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	const q = "//bidder[descendant::increase]"
	p, err := d.Prepare(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Nodes) < 3 {
		t.Fatalf("fixture too small: %d results", len(full.Nodes))
	}

	// RunLimit returns the k-prefix and reports truncation.
	top, err := p.RunLimit(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Nodes) != 2 || !top.Truncated {
		t.Fatalf("RunLimit(2): %d nodes truncated=%v", len(top.Nodes), top.Truncated)
	}
	for i, v := range top.Nodes {
		if v != full.Nodes[i] {
			t.Fatalf("RunLimit prefix mismatch at %d: %d != %d", i, v, full.Nodes[i])
		}
	}

	// Cursor drains to the identical sequence, batch by batch.
	cur, err := p.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got []int32
	for {
		b, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		got = append(got, b...)
	}
	if !cur.Exhausted() {
		t.Fatal("drained cursor not exhausted")
	}
	if len(got) != len(full.Nodes) {
		t.Fatalf("cursor drained %d nodes, want %d", len(got), len(full.Nodes))
	}
	for i := range got {
		if got[i] != full.Nodes[i] {
			t.Fatalf("cursor mismatch at %d", i)
		}
	}

	// Seek skips ahead: everything delivered after the hint must be
	// >= it, and the tail matches the full result's tail.
	cur2, err := p.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	mid := full.Nodes[len(full.Nodes)/2]
	cur2.Seek(mid)
	var tail []int32
	for {
		b, err := cur2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		tail = append(tail, b...)
	}
	if len(tail) == 0 || tail[0] < mid {
		t.Fatalf("seek ignored: first delivered %v, hint %d", tail, mid)
	}
	wantTail := full.Nodes[len(full.Nodes)/2:]
	if len(tail) < len(wantTail) {
		t.Fatalf("seek lost results: %d < %d", len(tail), len(wantTail))
	}
	for i := range wantTail {
		if tail[len(tail)-len(wantTail)+i] != wantTail[i] {
			t.Fatalf("seek tail mismatch at %d", i)
		}
	}
}

func TestPublicBinaryRoundTripAndOpen(t *testing.T) {
	d, err := staircase.GenerateXMark(0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.scj")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := staircase.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	q := "/descendant::profile/descendant::education"
	r1, err := d.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d2.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Nodes) != len(r2.Nodes) {
		t.Fatalf("binary round trip changed results: %d vs %d", len(r1.Nodes), len(r2.Nodes))
	}
}

func TestPublicCollection(t *testing.T) {
	d, err := staircase.LoadCollection(
		strings.NewReader("<a><x/></a>"),
		strings.NewReader("<b><x/></b>"),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Query("//x", nil)
	if err != nil || len(res.Nodes) != 2 {
		t.Fatalf("collection query: %v %v", res, err)
	}
}

func TestPublicCatalogAndServer(t *testing.T) {
	d, err := staircase.GenerateXMark(0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	cat := staircase.NewCatalog(0)
	if err := cat.Add("mem", d); err != nil {
		t.Fatal(err)
	}
	if got := cat.Names(); len(got) != 1 || got[0] != "mem" {
		t.Fatalf("names = %v", got)
	}
	srv := staircase.NewServer(staircase.ServerConfig{Catalog: cat, CacheBytes: 1 << 20})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := []byte(`{"doc":"mem","query":"/descendant::person"}`)
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Results []struct {
			Count int    `json:"count"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Error != "" || out.Results[0].Count == 0 {
		t.Fatalf("server results: %+v", out.Results)
	}
}

// TestPublicQueryFromUnsortedContext: the public API normalises
// caller contexts — out-of-order or duplicated node sets must not
// silently drop results.
func TestPublicQueryFromUnsortedContext(t *testing.T) {
	d, err := staircase.ParseXML(`<r><a><x/></a><b><x/></b><c><x/></c></r>`)
	if err != nil {
		t.Fatal(err)
	}
	roots, err := d.Query("/r/*", nil)
	if err != nil || len(roots.Nodes) != 3 {
		t.Fatalf("roots: %v %v", roots, err)
	}
	sorted, err := d.QueryFrom(roots.Nodes, "descendant::x", nil)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := []int32{roots.Nodes[2], roots.Nodes[0], roots.Nodes[1], roots.Nodes[0]}
	got, err := d.QueryFrom(shuffled, "descendant::x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != len(sorted.Nodes) || len(got.Nodes) != 3 {
		t.Fatalf("unsorted context dropped results: %v vs %v", got.Nodes, sorted.Nodes)
	}
	for i := range got.Nodes {
		if got.Nodes[i] != sorted.Nodes[i] {
			t.Fatalf("unsorted context changed results: %v vs %v", got.Nodes, sorted.Nodes)
		}
	}
}

// TestWarmValueProbeAllocations pins what a prepared value predicate
// costs per warm run once the document is loaded: the value index hands
// out views of its node column and substrings of its key arena, and
// Plan.Run returns the plan's own result, so a probe allocates its
// operators and its result and nothing per key or per node — 9
// allocations for the predicate step alone, 11 with a child step after
// it.
func TestWarmValueProbeAllocations(t *testing.T) {
	var text bytes.Buffer
	if err := staircase.WriteXMark(&text, 1, 7); err != nil {
		t.Fatal(err)
	}
	d, err := staircase.Load(&text)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query string
		nodes int
		bound float64
	}{
		{"/descendant::open_auction[initial > 100]", 100, 9},
		{"/descendant::open_auction[initial > 499.5]/bidder", 1, 11},
	} {
		p, err := d.Prepare(c.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := p.Run(); err != nil || len(res.Nodes) != c.nodes {
			t.Fatalf("%s: %d nodes (err %v), want %d", c.query, len(res.Nodes), err, c.nodes)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := p.Run(); err != nil {
				t.Fatal(err)
			}
		}); n > c.bound {
			t.Errorf("%s: %v allocations per warm run, want <= %v", c.query, n, c.bound)
		}
	}
}
