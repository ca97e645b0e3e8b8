package engine

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/doc"
	"staircase/internal/spec"
	"staircase/internal/xpath"
)

func shred(t testing.TB, s string) *doc.Document {
	t.Helper()
	d, err := doc.ShredString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func eq32(a, b []int32) bool {
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

// fixtureXML is a small auction-flavoured document exercising every
// query feature: nesting, attributes, text, repeated tags.
const fixtureXML = `
<site>
  <people>
    <person id="p1"><name>Alice</name><profile><education>BSc</education><age>30</age></profile></person>
    <person id="p2"><name>Bob</name><profile><age>41</age></profile></person>
    <person id="p3"><name>Carol</name><profile><education>PhD</education></profile></person>
  </people>
  <open_auctions>
    <open_auction id="a1">
      <bidder><increase>5</increase></bidder>
      <bidder><increase>10</increase></bidder>
      <current>15</current>
    </open_auction>
    <open_auction id="a2">
      <current>0</current>
    </open_auction>
  </open_auctions>
</site>`

func fixture(t testing.TB) *doc.Document {
	return shred(t, fixtureXML)
}

var fixtureQueries = []string{
	"/descendant::profile/descendant::education",
	"/descendant::increase/ancestor::bidder",
	"/descendant::bidder[descendant::increase]",
	"//person[profile/education]/name",
	"//open_auction[not(descendant::bidder)]",
	"/site/people/person[@id = 'p2']/name",
	"//person[position()=2]",
	"//bidder[last()]",
	"//increase/ancestor-or-self::node()",
	"//education/preceding::person",
	"//person[1]/following::open_auction",
	"//name[. != 'Bob']",
	"//profile/parent::person",
	"//person/child::*",
	"//bidder/following-sibling::bidder",
	"//current/preceding-sibling::node()",
	"//person/attribute::id",
	"//person/@id",
	"/descendant-or-self::increase",
	"//people/descendant::text()",
	"//person[name = 'Carol']/descendant::education",
	"//nosuchtag/descendant::a",
	"//person[profile and name]",
	"//open_auction[bidder or current]/@id",
	"//person[name = 'Alice' or name = 'Bob']/name",
	"//person[profile and not(profile/education)]",
	"//bidder[position()=1 or last()]",
	"//person[name and position()=2]",
	// Value predicates: semijoins over value fragments and PredFilters.
	"//open_auction[current > 10]",
	"//open_auction[current < 1]/@id",
	"//bidder[increase >= 10]",
	"//person[@id >= 'p2']/name",
	"//person[contains(name, 'aro')]/name",
	"//person[profile/age > 35]", // two-step path: the probes climb one prefix step
	"//name[. > 'Bob']",
	"//increase[self::node() = 5]",
	"//person[not(@id = 'p1')][age <= 100]",
}

func TestEngineMatchesSpecOnFixture(t *testing.T) {
	d := fixture(t)
	for _, q := range fixtureQueries {
		p, err := xpath.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want := spec.Eval(d, p, []int32{0})
		for _, push := range []Pushdown{PushAuto, PushAlways, PushNever} {
			e := New(d)
			got, err := e.EvalString(q, &Options{Pushdown: push})
			if err != nil {
				t.Fatalf("%s [%v]: %v", q, push, err)
			}
			if !eq32(got.Nodes, want) {
				t.Fatalf("%s [%v]:\n got %v\nwant %v", q, push, got.Nodes, want)
			}
		}
	}
}

func randomDoc(rng *rand.Rand, n int) *doc.Document {
	b := doc.NewBuilder()
	b.OpenElem("root")
	depth := 1
	tags := []string{"p", "q", "r", "s"}
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 5:
			b.OpenElem(tags[rng.Intn(len(tags))])
			if rng.Intn(4) == 0 {
				b.Attr("k", "v")
			}
			depth++
		case r < 7 && depth > 1:
			b.CloseElem()
			depth--
		default:
			b.Text("t")
		}
	}
	for depth > 0 {
		b.CloseElem()
		depth--
	}
	d, err := b.Done()
	if err != nil {
		panic(err)
	}
	return d
}

var randomQueries = []string{
	"/descendant::p/descendant::q",
	"/descendant::q/ancestor::p",
	"//p//q",
	"//p[q]/r",
	"//q/following::r",
	"//r/preceding::q",
	"//p/child::q/child::r",
	"//q[2]",
	"//p[last()]/descendant::text()",
	"//p/ancestor-or-self::p",
	"//q/@k",
	"//p[not(q)]",
	"//r/parent::node()",
	"//p/following-sibling::q",
	"//s/preceding-sibling::*",
}

func TestEngineMatchesSpecOnRandomDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 8; trial++ {
		d := randomDoc(rng, 150)
		e := New(d)
		for _, q := range randomQueries {
			p, err := xpath.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			want := spec.Eval(d, p, []int32{0})
			for _, opts := range []*Options{nil, {LegacyEval: true}} {
				got, err := e.EvalString(q, opts)
				if err != nil {
					t.Fatalf("%s %+v: %v", q, opts, err)
				}
				if !eq32(got.Nodes, want) {
					t.Fatalf("trial %d %s %+v:\n got %v\nwant %v", trial, q, opts, got.Nodes, want)
				}
			}
		}
	}
}

func TestEngineStepReports(t *testing.T) {
	d := fixture(t)
	e := New(d)
	res, err := e.EvalString("/descendant::increase/ancestor::bidder", &Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	s0, s1 := res.Steps[0], res.Steps[1]
	if s0.Axis != axis.Descendant || s1.Axis != axis.Ancestor {
		t.Fatalf("axes = %v, %v", s0.Axis, s1.Axis)
	}
	if s0.InputSize != 1 || s0.OutputSize != 2 {
		t.Fatalf("step 0 sizes = %d -> %d", s0.InputSize, s0.OutputSize)
	}
	if s1.InputSize != 2 || s1.OutputSize != 2 {
		t.Fatalf("step 1 sizes = %d -> %d", s1.InputSize, s1.OutputSize)
	}
	if s0.Core.Scanned == 0 {
		t.Fatal("staircase stats not collected")
	}
}

func TestEnginePushdownFlagAndEquivalence(t *testing.T) {
	d := fixture(t)
	e := New(d)
	always, err := e.EvalString("/descendant::increase", &Options{Pushdown: PushAlways})
	if err != nil {
		t.Fatal(err)
	}
	never, err := e.EvalString("/descendant::increase", &Options{Pushdown: PushNever})
	if err != nil {
		t.Fatal(err)
	}
	if !always.Steps[0].Pushed {
		t.Fatal("PushAlways did not push")
	}
	if never.Steps[0].Pushed {
		t.Fatal("PushNever pushed")
	}
	if !eq32(always.Nodes, never.Nodes) {
		t.Fatal("pushdown changed the result")
	}
}

func TestEngineRelativeEval(t *testing.T) {
	d := fixture(t)
	e := New(d)
	people, err := e.EvalString("//person", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(people.Nodes) != 3 {
		t.Fatalf("persons = %d", len(people.Nodes))
	}
	names, err := e.Eval(xpath.MustParse("name"), people.Nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(names.Nodes) != 3 {
		t.Fatalf("names = %d", len(names.Nodes))
	}
	var got []string
	for _, n := range names.Nodes {
		got = append(got, d.StringValue(n))
	}
	if strings.Join(got, ",") != "Alice,Bob,Carol" {
		t.Fatalf("names = %v", got)
	}
}

func TestEngineTagListCachedAndSorted(t *testing.T) {
	d := fixture(t)
	id, ok := d.Names().Lookup("person")
	if !ok {
		t.Fatal("person not interned")
	}
	l1 := d.TagIndex().Tag(id)
	l2 := d.TagIndex().Tag(id)
	if &l1[0] != &l2[0] {
		t.Fatal("tag list not cached")
	}
	if !sort.SliceIsSorted(l1, func(i, j int) bool { return l1[i] < l1[j] }) {
		t.Fatal("tag list unsorted")
	}
	if len(l1) != 3 {
		t.Fatalf("person list = %v", l1)
	}
}

func TestEngineUnionQueries(t *testing.T) {
	d := fixture(t)
	e := New(d)
	cases := []struct {
		union string
		parts []string
	}{
		{"//education | //increase", []string{"//education", "//increase"}},
		{"//name | //person/@id | //current", []string{"//name", "//person/@id", "//current"}},
		{"//bidder | //bidder", []string{"//bidder"}}, // duplicates merge away
	}
	for _, tc := range cases {
		var want []int32
		for _, part := range tc.parts {
			p, err := xpath.Parse(part)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range spec.Eval(d, p, []int32{0}) {
				want = append(want, v)
			}
		}
		want = dedupSorted(want)
		got, err := e.EvalString(tc.union, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.union, err)
		}
		if !eq32(got.Nodes, want) {
			t.Fatalf("%s:\n got %v\nwant %v", tc.union, got.Nodes, want)
		}
	}
}

func dedupSorted(nodes []int32) []int32 {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	out := nodes[:0]
	for i, v := range nodes {
		if i > 0 && v == nodes[i-1] {
			continue
		}
		out = append(out, v)
	}
	return out
}

func TestEngineParseError(t *testing.T) {
	e := New(fixture(t))
	if _, err := e.EvalString("///", nil); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestEngineNamespaceAxisEmpty(t *testing.T) {
	e := New(fixture(t))
	res, err := e.EvalString("/namespace::node()", nil)
	if err != nil || len(res.Nodes) != 0 {
		t.Fatalf("namespace axis: %v, %v", res, err)
	}
}

func TestPushdownStrings(t *testing.T) {
	for _, p := range []Pushdown{PushAuto, PushAlways, PushNever} {
		if p.String() == "" || strings.HasPrefix(p.String(), "Pushdown(") {
			t.Errorf("missing name for pushdown %d", p)
		}
	}
}

// TestEmptyContextAncestorStep: an intermediate step producing no
// nodes followed by a partitioning step must evaluate to an empty
// result on both routes, not panic: an empty context has no last node.
func TestEmptyContextAncestorStep(t *testing.T) {
	d := shred(t, `<r><b><c/></b></r>`)
	e := New(d)
	for _, q := range []string{
		"/descendant::nosuchtag/ancestor::b",
		"/descendant::nosuchtag/preceding::b",
		"/descendant::nosuchtag/following::b",
		"/descendant::nosuchtag/descendant::b",
	} {
		for _, opts := range []*Options{nil, {LegacyEval: true}} {
			res, err := e.EvalString(q, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", q, opts, err)
			}
			if len(res.Nodes) != 0 {
				t.Fatalf("%s %+v: expected empty result, got %v", q, opts, res.Nodes)
			}
		}
		if _, err := explain(e, q, nil); err != nil {
			t.Fatalf("explain %s: %v", q, err)
		}
	}
}

// TestLegacyReadsNoIndex: LegacyEval answers with the reference
// evaluator, which reads the plane alone, so with default options it
// answers a name-test path without building the document's index.
func TestLegacyReadsNoIndex(t *testing.T) {
	d := fixture(t)
	q := "/descendant::open_auction/descendant::bidder"
	pq, err := xpath.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	want := spec.EvalQuery(d, pq, []int32{d.Root()})
	got, err := New(d).EvalString(q, &Options{LegacyEval: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !eq32(got.Nodes, want) {
		t.Fatalf("legacy %s:\n got %v\nwant %v", q, got.Nodes, want)
	}
	if d.IndexBuilt() {
		t.Fatal("the LegacyEval route built the tag/kind index")
	}
}
