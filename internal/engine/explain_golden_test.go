package engine

// Golden EXPLAIN tests: committed plan-tree snapshots for the paper's
// benchmark queries Q1 and Q2 (Table 1) and the manually rewritten Q2
// of §4.4, in text and JSON form, over the fixed test fixture. Any
// planner change that alters operator selection, pushdown decisions,
// cardinalities or rendering shows up as a golden diff. Regenerate
// deliberately with
//
//	go test ./internal/engine -run TestExplainGolden -update-golden
import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden EXPLAIN snapshots")

var goldenQueries = []struct {
	name  string
	query string
}{
	{"q1", "/descendant::profile/descendant::education"},
	{"q2", "/descendant::increase/ancestor::bidder"},
	{"q2_rewritten", "/descendant::bidder[descendant::increase]"},
	{"value_range", "//open_auction[current > 10]"},
	{"value_contains", "//person[contains(name, 'aro')]/name"},
	// A two-step predicate path: the semijoin climbs child::profile.
	{"value_path", "//person[profile/age > 35]"},
	// An existential child path: a climb over the tag index's list.
	{"exists_path", "//person[profile/education]"},
	// The greedy ordering pass hoists the exact-count value semijoin
	// above the source-first per-node predicate filter.
	{"reordered", "//person[not(watches)][name = 'Carol']"},
	// A fragment statistic proves the branch empty at compile time: the
	// plan short-circuits under an EmptyResult operator.
	{"empty_intermediate", "//annotation/ancestor::person"},
}

func TestExplainGolden(t *testing.T) {
	e := New(fixture(t))
	for _, tc := range goldenQueries {
		text, err := explain(e, tc.query, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		jsonOut, err := explainJSON(e, tc.query, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		checkGolden(t, "explain_"+tc.name+".txt", []byte(text))
		checkGolden(t, "explain_"+tc.name+".json", append(jsonOut, '\n'))
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: plan changed.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
