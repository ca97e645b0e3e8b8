package staircase_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"staircase"
	"staircase/internal/server"
)

// The surface ledger: every knob, option value, request field, response
// key, metric, EXPLAIN key and query limit the library exposes, one
// sorted line per item in testdata/surface.txt with a count per
// section. A change that adds or removes surface shows up as a diff of
// that file; the CLIs keep their flags in cmd/*/testdata/flags.txt the
// same way. Regenerate with
//
//	go test . ./cmd/xpathd ./cmd/xpathq -run Surface -update-surface

var updateSurface = flag.Bool("update-surface", false, "rewrite testdata/surface.txt")

func TestSurface(t *testing.T) {
	sections := []struct {
		name  string
		items []string
	}{
		{"Options fields", fieldLines(reflect.TypeOf(staircase.Options{}))},
		{"Options values", optionValues(reflect.TypeOf(staircase.Options{}))},
		{"ServerConfig fields", fieldLines(reflect.TypeOf(staircase.ServerConfig{}))},
		{"metrics", metricNames(t)},
		{"/query result keys", jsonKeys(reflect.TypeOf(server.QueryResult{}))},
		{"/stream line keys", jsonKeys(reflect.TypeOf(server.StreamChunk{}))},
		{"EXPLAIN JSON keys", explainKeys(t)},
		{"EXPLAIN operators", planSurface(t, "op")},
		{"rewrite rules", planSurface(t, "rewrites")},
		{"query limits", []string{
			fmt.Sprintf("MaxQueryDepth=%d", staircase.MaxQueryDepth),
			fmt.Sprintf("MaxQueryTerms=%d", staircase.MaxQueryTerms),
			fmt.Sprintf("%T", &staircase.QueryLimitError{}),
		}},
	}
	var sb strings.Builder
	sb.WriteString("# Surface ledger. Regenerate: go test . -run TestSurface -update-surface\n")
	for _, s := range sections {
		slices.Sort(s.items)
		fmt.Fprintf(&sb, "\n## %s (%d)\n", s.name, len(s.items))
		for _, it := range s.items {
			sb.WriteString(it + "\n")
		}
	}
	checkSurface(t, "testdata/surface.txt", sb.String())
}

// checkSurface compares a rendered ledger with its golden file, or
// rewrites the file under -update-surface.
func checkSurface(t *testing.T, path, got string) {
	t.Helper()
	if *updateSurface {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s is stale; a change to the surface must show in this file (rerun with -update-surface):\ngot\n%s", path, got)
	}
}

// fieldLines renders the exported fields of a struct, one "Name Type"
// line each.
func fieldLines(typ reflect.Type) []string {
	var out []string
	for _, f := range reflect.VisibleFields(typ) {
		if f.IsExported() {
			out = append(out, f.Name+" "+f.Type.String())
		}
	}
	return out
}

// jsonKeys lists the JSON keys a response struct encodes, read from
// its fields' json tags.
func jsonKeys(typ reflect.Type) []string {
	var out []string
	for _, f := range reflect.VisibleFields(typ) {
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); f.IsExported() && name != "-" {
			out = append(out, name)
		}
	}
	return out
}

// optionValues enumerates the named values of every enumerated option
// field — an unsigned type with a String method — up to the first value
// that renders as the type's numeric fallback, "Type(n)".
func optionValues(typ reflect.Type) []string {
	stringer := reflect.TypeOf((*fmt.Stringer)(nil)).Elem()
	var out []string
	for _, f := range reflect.VisibleFields(typ) {
		if !f.IsExported() || f.Type.Kind() != reflect.Uint8 || !f.Type.Implements(stringer) {
			continue
		}
		v := reflect.New(f.Type).Elem()
		for n := uint64(0); n < 256; n++ {
			v.SetUint(n)
			name := v.Interface().(fmt.Stringer).String()
			if strings.HasSuffix(name, fmt.Sprintf("(%d)", n)) {
				break
			}
			out = append(out, f.Name+"="+name)
		}
	}
	return out
}

// surfaceDoc is the document the scraped sections run against.
func surfaceDoc(t *testing.T) *staircase.Document {
	t.Helper()
	d, err := staircase.ParseXML(apiFixture)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// metricNames scrapes the metric names of a fresh server's /metrics.
func metricNames(t *testing.T) []string {
	cat := staircase.NewCatalog(0)
	if err := cat.Add("d", surfaceDoc(t)); err != nil {
		t.Fatal(err)
	}
	srv := staircase.NewServer(staircase.ServerConfig{Catalog: cat})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var out []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if name, _, _ := strings.Cut(line, " "); name != "" && !strings.HasPrefix(name, "#") {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		t.Fatalf("/metrics: status %d, no metric lines", rec.Code)
	}
	return out
}

// explainKeys lists the keys of one executed plan's EXPLAIN JSON: the
// tree's as "tree.key", its operators' (merged over every node) as
// "node.key".
func explainKeys(t *testing.T) []string {
	b, err := surfaceDoc(t).ExplainJSON("/descendant::open_auction[descendant::bidder]/descendant::increase", nil)
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(b, &tree); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(n map[string]any)
	walk = func(n map[string]any) {
		for k, v := range n {
			seen["node."+k] = true
			if k == "children" {
				for _, c := range v.([]any) {
					walk(c.(map[string]any))
				}
			}
		}
	}
	for k, v := range tree {
		seen["tree."+k] = true
		if k == "root" {
			walk(v.(map[string]any))
		}
	}
	var out []string
	for k := range seen {
		out = append(out, k)
	}
	return out
}

// surfaceQueries reach every EXPLAIN operator and every rewrite rule,
// between them, under the default options and under NoIndex.
var surfaceQueries = []string{
	// Source, StaircaseJoin, IndexScan (ColumnScan under NoIndex),
	// SemiJoin; semijoin.
	"/descendant::open_auction[descendant::bidder]/descendant::increase",
	// AxisStep; collapse-descendant-or-self.
	"//person/name",
	// drop-self-node.
	"/descendant::person/self::node()",
	// PredFilter; split-and.
	"/descendant::person[name and not(profile)]",
	// SemiJoin, ValueScan; semijoin.
	"/descendant::open_auction[current > 5]",
	// PosFilter.
	"/descendant::person[1]",
	// EmptyResult (the index counts no nosuch element).
	"/descendant::nosuch/ancestor::person",
	// Merge.
	"/descendant::name | /descendant::current",
}

// planSurface collects, over surfaceQueries under the default options
// and NoIndex, the operator names (field "op") or the rewrite rules
// (field "rewrites") of their executed EXPLAIN JSON trees.
func planSurface(t *testing.T, field string) []string {
	d := surfaceDoc(t)
	seen := map[string]bool{}
	var walk func(n map[string]any)
	walk = func(n map[string]any) {
		seen[n["op"].(string)] = true
		kids, _ := n["children"].([]any)
		for _, c := range kids {
			walk(c.(map[string]any))
		}
	}
	for _, opts := range []*staircase.Options{nil, {NoIndex: true}} {
		for _, q := range surfaceQueries {
			b, err := d.ExplainJSON(q, opts)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			var tree struct {
				Rewrites []string       `json:"rewrites"`
				Root     map[string]any `json:"root"`
			}
			if err := json.Unmarshal(b, &tree); err != nil {
				t.Fatal(err)
			}
			if field == "op" {
				walk(tree.Root)
				continue
			}
			for _, r := range tree.Rewrites {
				seen[r] = true
			}
		}
	}
	var out []string
	for k := range seen {
		out = append(out, k)
	}
	return out
}
