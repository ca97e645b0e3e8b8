package plan

import (
	"encoding/json"
	"strings"
	"testing"

	"staircase/internal/doc"
	"staircase/internal/spec"
	"staircase/internal/xpath"
)

const fixtureXML = `
<site>
  <people>
    <person id="p1"><name>Alice</name><profile><education>PhD</education></profile></person>
    <person id="p2"><name>Bob</name></person>
    <person id="p3"><name>Carol</name><profile><education>MSc</education></profile></person>
  </people>
  <open_auctions>
    <open_auction id="a1">
      <bidder><increase>5</increase></bidder>
      <bidder><increase>10</increase></bidder>
      <current>15</current>
    </open_auction>
    <open_auction id="a2"><current>7</current></open_auction>
  </open_auctions>
</site>`

func fixture(t testing.TB) *doc.Document {
	t.Helper()
	d, err := doc.ShredString(fixtureXML)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// compileQuery prepares a query for the fixture.
func compileQuery(t testing.TB, env *Env, q string, opts *Options) *Plan {
	t.Helper()
	p, err := Prepare(env, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t testing.TB, env *Env, q string, opts *Options) []int32 {
	t.Helper()
	res, err := compileQuery(t, env, q, opts).RunRoot()
	if err != nil {
		t.Fatal(err)
	}
	return res.Nodes
}

func TestPlanBasicQueries(t *testing.T) {
	d := fixture(t)
	env := NewEnv(d)
	cases := []struct {
		q    string
		want int
	}{
		{"/descendant::person", 3},
		{"//person", 3},
		{"//person/name", 3},
		{"/descendant::increase/ancestor::bidder", 2},
		{"/descendant::bidder[descendant::increase]", 2},
		{"//open_auction[bidder]/current", 1},
		{"//person[2]", 1},
		{"//name | //current", 5},
		{"//person/@id", 3},
		{"//nosuchtag", 0},
	}
	for _, tc := range cases {
		got := run(t, env, tc.q, nil)
		if len(got) != tc.want {
			t.Errorf("%s: got %d nodes (%v), want %d", tc.q, len(got), got, tc.want)
		}
	}
}

// TestPlanRewriteCollapse pins the //-collapse rewrite and its
// root-element corner case: //site must NOT return the root element
// (the document node's children are not materialised), matching the
// reference evaluator.
func TestPlanRewriteCollapse(t *testing.T) {
	d := fixture(t)
	env := NewEnv(d)
	if got := run(t, env, "//site", nil); len(got) != 0 {
		t.Errorf("//site = %v, want empty (root element is not a child of any node)", got)
	}
	if got := run(t, env, "/descendant::site", nil); len(got) != 1 {
		t.Errorf("/descendant::site = %v, want the root element", got)
	}
	p := compileQuery(t, env, "//person/name", nil)
	joined := strings.Join(p.Rewrites(), ",")
	if !strings.Contains(joined, "collapse-descendant-or-self") {
		t.Errorf("rewrites = %v, want collapse-descendant-or-self", p.Rewrites())
	}
	res, err := p.RunRoot()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 {
		t.Errorf("steps = %d, want 2 after collapse", len(res.Steps))
	}
}

// TestPlanCanonEquivalence: equivalent query texts canonicalise to the
// same plan string; different semantics stay distinct.
func TestPlanCanonEquivalence(t *testing.T) {
	d := fixture(t)
	env := NewEnv(d)
	same := [][2]string{
		{"//person/name", "/descendant-or-self::node()/child::person/child::name"},
		{"//bidder", "/descendant-or-self::node()/descendant-or-self::node()/child::bidder"},
		{"//person[profile and name]", "//person[profile][name]"},
		{"descendant::bidder/self::node()", "descendant::bidder"},
	}
	for _, pair := range same {
		a := compileQuery(t, env, pair[0], nil).Canon()
		b := compileQuery(t, env, pair[1], nil).Canon()
		if a != b {
			t.Errorf("canon(%q) != canon(%q):\n %s\n %s", pair[0], pair[1], a, b)
		}
	}
	diff := [][2]string{
		{"//site", "/descendant::site"}, // root element differs
		{"//person", "//person[name]"},
		{"//person", "/descendant::person | //nosuch"},
	}
	for _, pair := range diff {
		a := compileQuery(t, env, pair[0], nil).Canon()
		b := compileQuery(t, env, pair[1], nil).Canon()
		if a == b {
			t.Errorf("canon(%q) == canon(%q) = %s, want distinct", pair[0], pair[1], a)
		}
	}
	// NoIndex is excluded from the canonical string (property-tested to
	// never change results) ...
	a := compileQuery(t, env, "//bidder", nil).Canon()
	b := compileQuery(t, env, "//bidder", &Options{NoIndex: true}).Canon()
	if a != b {
		t.Errorf("canon differs across the noindex knob:\n %s\n %s", a, b)
	}
	// ... while the pushdown policy is included.
	c := compileQuery(t, env, "//bidder", &Options{Pushdown: PushNever}).Canon()
	if c == a {
		t.Errorf("canon ignores pushdown: %s", c)
	}
}

// TestPlanSemiJoin: the semijoin rewrite fires for Q2's
// rewritten form and produces the same nodes as per-node filtering.
func TestPlanSemiJoin(t *testing.T) {
	d := fixture(t)
	env := NewEnv(d)
	p := compileQuery(t, env, "/descendant::bidder[descendant::increase]", nil)
	if !strings.Contains(strings.Join(p.Rewrites(), ","), "semijoin") {
		t.Fatalf("rewrites = %v, want semijoin", p.Rewrites())
	}
	res, err := p.RunRoot()
	if err != nil {
		t.Fatal(err)
	}
	// The reference evaluates the predicate node by node; results agree.
	want := spec.Eval(d, xpath.MustParse("/descendant::bidder[descendant::increase]"), nil)
	if len(res.Nodes) != len(want) {
		t.Fatalf("semijoin %v vs predfilter %v", res.Nodes, want)
	}
	for i := range want {
		if res.Nodes[i] != want[i] {
			t.Fatalf("semijoin %v vs predfilter %v", res.Nodes, want)
		}
	}
}

func TestPlanExplainSurfaces(t *testing.T) {
	d := fixture(t)
	env := NewEnv(d)
	p := compileQuery(t, env, "/descendant::increase/ancestor::bidder", nil)
	res, err := p.RunRoot()
	if err != nil {
		t.Fatal(err)
	}
	text := p.ExplainText(res)
	for _, want := range []string{
		"StaircaseJoin", "step 1", "step 2", "cardinality:", "pruning:",
		"staircase join", "no duplicates, document order", "est=2 actual=2 result",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain text missing %q:\n%s", want, text)
		}
	}
	out, err := p.ExplainJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var tree ExplainTree
	if err := json.Unmarshal(out, &tree); err != nil {
		t.Fatalf("explain JSON does not round-trip: %v", err)
	}
	if tree.ResultCount != 2 || tree.Root == nil || tree.Root.Op == "" {
		t.Fatalf("explain JSON incomplete: %+v", tree)
	}
}

// TestPlanStepStats: the per-step reports keep their conventions
// (input/output sizes, pushdown flags, staircase work).
func TestPlanStepStats(t *testing.T) {
	d := fixture(t)
	env := NewEnv(d)
	p := compileQuery(t, env, "/descendant::increase/ancestor::bidder", nil)
	res, err := p.RunRoot()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	s0, s1 := res.Steps[0], res.Steps[1]
	if s0.InputSize != 1 || s0.OutputSize != 2 {
		t.Errorf("step 0 sizes = %d -> %d", s0.InputSize, s0.OutputSize)
	}
	if s1.InputSize != 2 || s1.OutputSize != 2 {
		t.Errorf("step 1 sizes = %d -> %d", s1.InputSize, s1.OutputSize)
	}
	if s0.Core.Scanned == 0 && !s0.Pushed {
		t.Error("no staircase stats and no pushdown on step 0")
	}
}
