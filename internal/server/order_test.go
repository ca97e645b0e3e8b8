package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"staircase/internal/catalog"
	"staircase/internal/doc"
)

// newOrderServer registers a synthetic document shaped for the ordering
// counter: item 0 holds the only z element (a 1-node fragment the
// greedy pass hoists) and each of the 600 items holds a b.
func newOrderServer(t *testing.T) (*httptest.Server, func()) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<r><item><b/><z/></item>")
	for i := 0; i < 599; i++ {
		sb.WriteString("<item><b/></item>")
	}
	sb.WriteString("</r>")
	d, err := doc.ShredString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New(0)
	if err := cat.AddDocument("mem", d); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Catalog: cat})
	ts := httptest.NewServer(s.Handler())
	return ts, ts.Close
}

// scrapeMetric fetches /metrics and returns the named counter value.
func scrapeMetric(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("/metrics lacks %s:\n%s", name, body)
	}
	n, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestOrderingMetricsExposed: compiling a reorderable query moves
// plan_reorders_total.
func TestOrderingMetricsExposed(t *testing.T) {
	ts, done := newOrderServer(t)
	defer done()

	reordersBefore := scrapeMetric(t, ts.URL, "xpathd_plan_reorders_total")

	// Exact fragment counts hoist the 1-node z semijoin above the
	// 600-node b semijoin at compile time.
	body, _ := json.Marshal(QueryRequest{Doc: "mem", Query: "//item[descendant::b][descendant::z]"})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(qr.Results) != 1 || qr.Results[0].Error != "" || qr.Results[0].Count != 1 {
		t.Fatalf("reorder query: %+v", qr.Results)
	}
	if got := scrapeMetric(t, ts.URL, "xpathd_plan_reorders_total"); got <= reordersBefore {
		t.Errorf("plan_reorders_total %d -> %d, want increase", reordersBefore, got)
	}
}
