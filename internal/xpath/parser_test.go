package xpath

import (
	"errors"
	"strings"
	"testing"

	"staircase/internal/axis"
)

func TestParsePaperQueries(t *testing.T) {
	// Q1 and Q2 of the paper's evaluation (Table 1).
	q1, err := Parse("/descendant::profile/descendant::education")
	if err != nil {
		t.Fatal(err)
	}
	if !q1.Absolute || len(q1.Steps) != 2 {
		t.Fatalf("Q1 = %+v", q1)
	}
	if q1.Steps[0].Axis != axis.Descendant || q1.Steps[0].Test.Name != "profile" {
		t.Fatalf("Q1 step 1 = %+v", q1.Steps[0])
	}
	if q1.Steps[1].Axis != axis.Descendant || q1.Steps[1].Test.Name != "education" {
		t.Fatalf("Q1 step 2 = %+v", q1.Steps[1])
	}

	q2, err := Parse("/descendant::increase/ancestor::bidder")
	if err != nil {
		t.Fatal(err)
	}
	if q2.Steps[1].Axis != axis.Ancestor || q2.Steps[1].Test.Name != "bidder" {
		t.Fatalf("Q2 step 2 = %+v", q2.Steps[1])
	}

	// The manual rewrite of Q2 (§4.4, after Olteanu et al.).
	q2r, err := Parse("/descendant::bidder[descendant::increase]")
	if err != nil {
		t.Fatal(err)
	}
	if len(q2r.Steps) != 1 || len(q2r.Steps[0].Preds) != 1 {
		t.Fatalf("Q2 rewrite = %+v", q2r)
	}
	ex, ok := q2r.Steps[0].Preds[0].(Exists)
	if !ok || ex.Path.Steps[0].Axis != axis.Descendant {
		t.Fatalf("Q2 rewrite predicate = %+v", q2r.Steps[0].Preds[0])
	}
}

func TestParseAbbreviations(t *testing.T) {
	p, err := Parse("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if p.Absolute || len(p.Steps) != 2 || p.Steps[0].Axis != axis.Child {
		t.Fatalf("a/b = %+v", p)
	}

	p, err = Parse("//item")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Absolute || len(p.Steps) != 2 {
		t.Fatalf("//item = %+v", p)
	}
	if p.Steps[0].Axis != axis.DescendantOrSelf || p.Steps[0].Test.Kind != TestNode {
		t.Fatalf("// expansion = %+v", p.Steps[0])
	}

	p, err = Parse("a//b")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 3 || p.Steps[1].Axis != axis.DescendantOrSelf {
		t.Fatalf("a//b = %+v", p)
	}

	p, err = Parse("../@id")
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps[0].Axis != axis.Parent || p.Steps[1].Axis != axis.Attribute || p.Steps[1].Test.Name != "id" {
		t.Fatalf("../@id = %+v", p)
	}

	p, err = Parse(".")
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps[0].Axis != axis.Self {
		t.Fatalf(". = %+v", p)
	}

	p, err = Parse("/")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Absolute || p.Steps[0].Axis != axis.Self {
		t.Fatalf("/ = %+v", p)
	}

	p, err = Parse("*")
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps[0].Test.Kind != TestAny {
		t.Fatalf("* = %+v", p)
	}
}

func TestParseKindTests(t *testing.T) {
	cases := map[string]TestKind{
		"text()":                     TestText,
		"comment()":                  TestComment,
		"node()":                     TestNode,
		"processing-instruction()":   TestPI,
		"processing-instruction(xx)": TestPI,
	}
	for in, kind := range cases {
		p, err := Parse("/descendant::" + in)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if p.Steps[0].Test.Kind != kind {
			t.Errorf("%s parsed as %v", in, p.Steps[0].Test.Kind)
		}
	}
	p, _ := Parse("/descendant::processing-instruction('tgt')")
	if p.Steps[0].Test.Name != "tgt" {
		t.Errorf("PI target = %q", p.Steps[0].Test.Name)
	}
}

func TestParsePredicates(t *testing.T) {
	p, err := Parse("item[3]")
	if err != nil {
		t.Fatal(err)
	}
	if pos, ok := p.Steps[0].Preds[0].(Position); !ok || pos.N != 3 {
		t.Fatalf("[3] = %+v", p.Steps[0].Preds[0])
	}

	p, err = Parse("item[position()=2]")
	if err != nil {
		t.Fatal(err)
	}
	if pos, ok := p.Steps[0].Preds[0].(Position); !ok || pos.N != 2 {
		t.Fatalf("[position()=2] = %+v", p.Steps[0].Preds[0])
	}

	p, err = Parse("item[last()]")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Steps[0].Preds[0].(Last); !ok {
		t.Fatalf("[last()] = %+v", p.Steps[0].Preds[0])
	}

	p, err = Parse(`person[name = 'Alice']`)
	if err != nil {
		t.Fatal(err)
	}
	cmp, ok := p.Steps[0].Preds[0].(Compare)
	if !ok || cmp.Op != OpEq || cmp.Literal != "Alice" {
		t.Fatalf("compare = %+v", p.Steps[0].Preds[0])
	}

	p, err = Parse(`person[@id != "7"]`)
	if err != nil {
		t.Fatal(err)
	}
	cmp, ok = p.Steps[0].Preds[0].(Compare)
	if !ok || cmp.Op != OpNe || cmp.Path.Steps[0].Axis != axis.Attribute {
		t.Fatalf("compare = %+v", p.Steps[0].Preds[0])
	}

	p, err = Parse("open_auction[not(bidder)]")
	if err != nil {
		t.Fatal(err)
	}
	n, ok := p.Steps[0].Preds[0].(Not)
	if !ok {
		t.Fatalf("not = %+v", p.Steps[0].Preds[0])
	}
	if _, ok := n.Inner.(Exists); !ok {
		t.Fatalf("not inner = %+v", n.Inner)
	}

	// Multiple predicates on one step.
	p, err = Parse("a[b][2]")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps[0].Preds) != 2 {
		t.Fatalf("preds = %+v", p.Steps[0].Preds)
	}

	// Elements named like functions still parse as paths.
	p, err = Parse("a[position]")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Steps[0].Preds[0].(Exists); !ok {
		t.Fatalf("[position] = %+v", p.Steps[0].Preds[0])
	}

	// Absolute path inside a predicate.
	p, err = Parse("a[/root/flag = 'on']")
	if err != nil {
		t.Fatal(err)
	}
	cmp = p.Steps[0].Preds[0].(Compare)
	if !cmp.Path.Absolute {
		t.Fatalf("predicate path should be absolute: %+v", cmp)
	}
}

func TestParseAllAxes(t *testing.T) {
	for _, a := range axis.All() {
		in := "/" + a.String() + "::node()"
		p, err := Parse(in)
		if err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if p.Steps[0].Axis != a {
			t.Errorf("%s parsed axis %v", in, p.Steps[0].Axis)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"/descendant::",
		"a[",
		"a[]",
		"a[b='unterminated]",
		"a[b=]",
		"foo::bar",
		"a b",
		"a//",
		"a[position()=]",
		"a[position()=0]",
		"//[2]",
		"a[not(b]",
		"a::node()",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	// Canonical rendering must re-parse to the same AST.
	inputs := []string{
		"/descendant::profile/descendant::education",
		"//open_auction[descendant::increase]/child::bidder",
		"child::a[position()=2]/attribute::id",
		"/descendant-or-self::node()/child::item[child::name = 'x']",
		"preceding-sibling::p[last()]",
	}
	for _, in := range inputs {
		p1, err := Parse(in)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		p2, err := Parse(p1.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", p1.String(), err)
		}
		if p1.String() != p2.String() {
			t.Errorf("round trip: %q -> %q", p1.String(), p2.String())
		}
	}
}

func TestParseUnionQueries(t *testing.T) {
	q, err := ParseQuery("//a | /b/c | descendant::d")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Paths) != 3 {
		t.Fatalf("paths = %d", len(q.Paths))
	}
	if !q.Paths[1].Absolute || q.Paths[1].Steps[0].Test.Name != "b" {
		t.Fatalf("second path = %+v", q.Paths[1])
	}
	// Single path unions are plain paths.
	q, err = ParseQuery("//a")
	if err != nil || len(q.Paths) != 1 {
		t.Fatalf("single path: %+v, %v", q, err)
	}
	// Canonical rendering round-trips.
	q, err = ParseQuery("//a|//b")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ParseQuery(q.String())
	if err != nil || q2.String() != q.String() {
		t.Fatalf("round trip: %q vs %q (%v)", q.String(), q2.String(), err)
	}
	for _, bad := range []string{"//a |", "| //a", "//a | | //b"} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q) succeeded", bad)
		}
	}
	// Parse (single path) rejects unions.
	if _, err := Parse("//a | //b"); err == nil {
		t.Error("Parse accepted a union")
	}
}

func TestParseBooleanPredicates(t *testing.T) {
	p, err := Parse("a[b and c]")
	if err != nil {
		t.Fatal(err)
	}
	and, ok := p.Steps[0].Preds[0].(And)
	if !ok || len(and.Preds) != 2 {
		t.Fatalf("[b and c] = %+v", p.Steps[0].Preds[0])
	}

	p, err = Parse("a[b or c or d]")
	if err != nil {
		t.Fatal(err)
	}
	or, ok := p.Steps[0].Preds[0].(Or)
	if !ok || len(or.Preds) != 3 {
		t.Fatalf("[b or c or d] = %+v", p.Steps[0].Preds[0])
	}

	// 'and' binds tighter than 'or'.
	p, err = Parse("a[b or c and d]")
	if err != nil {
		t.Fatal(err)
	}
	or, ok = p.Steps[0].Preds[0].(Or)
	if !ok || len(or.Preds) != 2 {
		t.Fatalf("[b or c and d] = %+v", p.Steps[0].Preds[0])
	}
	if _, ok := or.Preds[1].(And); !ok {
		t.Fatalf("right operand should be And: %+v", or.Preds[1])
	}

	// Inside not(...).
	p, err = Parse("a[not(b and c)]")
	if err != nil {
		t.Fatal(err)
	}
	n, ok := p.Steps[0].Preds[0].(Not)
	if !ok {
		t.Fatalf("not = %+v", p.Steps[0].Preds[0])
	}
	if _, ok := n.Inner.(And); !ok {
		t.Fatalf("not inner = %+v", n.Inner)
	}

	// Mixed with comparisons and positions.
	p, err = Parse("a[b = 'x' and position()=1]")
	if err != nil {
		t.Fatal(err)
	}
	and, ok = p.Steps[0].Preds[0].(And)
	if !ok {
		t.Fatalf("mixed = %+v", p.Steps[0].Preds[0])
	}
	if _, ok := and.Preds[0].(Compare); !ok {
		t.Fatalf("left = %+v", and.Preds[0])
	}
	if _, ok := and.Preds[1].(Position); !ok {
		t.Fatalf("right = %+v", and.Preds[1])
	}

	// Elements named 'and'/'or' still work as steps.
	p, err = Parse("and/or")
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps[0].Test.Name != "and" || p.Steps[1].Test.Name != "or" {
		t.Fatalf("and/or path = %+v", p)
	}

	for _, bad := range []string{"a[b and]", "a[or b]", "a[b or]"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestParseRejectsBadCharacters(t *testing.T) {
	for _, bad := range []string{"a$", "a %", "a[b$]"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

// TestParseErrorOffsets pins the byte offsets reported in parser
// diagnostics: every error names the position of the offending token,
// including the trailing-input errors that used to lose it.
func TestParseErrorOffsets(t *testing.T) {
	cases := []struct {
		input string
		want  string
	}{
		{"a b", `xpath: offset 2: trailing input at "b"`},
		{"a//", `xpath: offset 3: expected location step, got ""`},
		{"a[", `xpath: offset 2: expected location step, got ""`},
		{"a]b", `xpath: offset 1: trailing input at "]"`},
		{"//[2]", `xpath: offset 2: expected location step, got "["`},
		{"foo::bar", `xpath: offset 0: unknown axis "foo"`},
		{"a/foo::bar", `xpath: offset 2: unknown axis "foo"`},
		{"a[b='unterminated]", `xpath: offset 4: unterminated string`},
		{"ab[position()=0]", `xpath: offset 14: bad position "0"`},
		{"a[not(b]", `xpath: offset 7: expected ')' after not(...`},
		{"a[b=]", `xpath: offset 4: expected string or number literal after comparison, got "]"`},
		{"a$", `xpath: offset 1: unexpected character $`},
		{"a::node()", `xpath: offset 0: unknown axis "a"`},
	}
	for _, tc := range cases {
		_, err := Parse(tc.input)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want %q", tc.input, tc.want)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("Parse(%q):\n got %q\nwant %q", tc.input, err.Error(), tc.want)
		}
	}
	// ParseQuery reports union-level trailing input with its offset too.
	if _, err := ParseQuery("a | b )"); err == nil || err.Error() != `xpath: offset 6: trailing input at ")"` {
		t.Errorf("ParseQuery trailing input: got %v", err)
	}
}

// TestParseComparisons covers the typed comparison grammar: all six
// operators, string vs numeric literals, and canonical re-rendering.
func TestParseComparisons(t *testing.T) {
	cases := []struct {
		input   string
		op      CompareOp
		literal string
		numeric bool
		str     string // canonical String() rendering
	}{
		{`a[b = "x"]`, OpEq, "x", false, `child::a[child::b = "x"]`},
		{`a[b != 'x']`, OpNe, "x", false, `child::a[child::b != "x"]`},
		{`a[@id < '5']`, OpLt, "5", false, `child::a[attribute::id < "5"]`},
		{`a[b <= 'zz']`, OpLe, "zz", false, `child::a[child::b <= "zz"]`},
		{`price[. > '100']`, OpGt, "100", false, `child::price[self::node() > "100"]`},
		{`a[b >= "y"]`, OpGe, "y", false, `child::a[child::b >= "y"]`},
		{`a[b = 100]`, OpEq, "100", true, `child::a[child::b = 100]`},
		{`a[b > 100]`, OpGt, "100", true, `child::a[child::b > 100]`},
		{`a[b < 10.5]`, OpLt, "10.5", true, `child::a[child::b < 10.5]`},
		{`a[@n >= 0.25]`, OpGe, "0.25", true, `child::a[attribute::n >= 0.25]`},
		{`a[b != 7]`, OpNe, "7", true, `child::a[child::b != 7]`},
		{`a[text() <= 3]`, OpLe, "3", true, `child::a[child::text() <= 3]`},
	}
	for _, tc := range cases {
		p, err := Parse(tc.input)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.input, err)
			continue
		}
		cmp, ok := p.Steps[0].Preds[0].(Compare)
		if !ok {
			t.Errorf("Parse(%q) predicate = %T, want Compare", tc.input, p.Steps[0].Preds[0])
			continue
		}
		if cmp.Op != tc.op || cmp.Literal != tc.literal || cmp.Numeric != tc.numeric {
			t.Errorf("Parse(%q) = op %v literal %q numeric %v", tc.input, cmp.Op, cmp.Literal, cmp.Numeric)
		}
		if got := p.String(); got != tc.str {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.input, got, tc.str)
		}
		// Canonical renderings must re-parse to the same predicate.
		again, err := Parse(p.String())
		if err != nil {
			t.Errorf("reparse %q: %v", p.String(), err)
		} else if again.String() != p.String() {
			t.Errorf("reparse %q = %q", p.String(), again.String())
		}
	}
}

func TestParseContains(t *testing.T) {
	p, err := Parse(`item[contains(name, 'brutus')]`)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := p.Steps[0].Preds[0].(Contains)
	if !ok || c.Literal != "brutus" || len(c.Path.Steps) != 1 || c.Path.Steps[0].Test.Name != "name" {
		t.Fatalf("contains predicate = %+v", p.Steps[0].Preds[0])
	}
	if got, want := p.String(), `child::item[contains(child::name, "brutus")]`; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if _, err := Parse(p.String()); err != nil {
		t.Fatalf("reparse: %v", err)
	}

	// contains on an attribute path, nested under not().
	p, err = Parse(`a[not(contains(@id, "x"))]`)
	if err != nil {
		t.Fatal(err)
	}
	n := p.Steps[0].Preds[0].(Not)
	if _, ok := n.Inner.(Contains); !ok {
		t.Fatalf("not(contains(...)) inner = %T", n.Inner)
	}

	// An element named "contains" must still parse as a path.
	p, err = Parse(`a[contains]`)
	if err != nil {
		t.Fatal(err)
	}
	if ex, ok := p.Steps[0].Preds[0].(Exists); !ok || ex.Path.Steps[0].Test.Name != "contains" {
		t.Fatalf("a[contains] predicate = %+v", p.Steps[0].Preds[0])
	}
	if _, err = Parse(`a[contains/b = 'x']`); err != nil {
		t.Fatal(err)
	}
}

// TestParseComparisonErrorOffsets pins diagnostics of the extended
// grammar: every error carries the byte offset of the offending token.
func TestParseComparisonErrorOffsets(t *testing.T) {
	cases := []struct {
		input string
		want  string
	}{
		{"a[b>]", `xpath: offset 4: expected string or number literal after comparison, got "]"`},
		{"a[b<='unterminated]", `xpath: offset 5: unterminated string`},
		{"a[b >= ]", `xpath: offset 7: expected string or number literal after comparison, got "]"`},
		{"a[contains(b]", `xpath: offset 12: expected ',' in contains(...), got "]"`},
		{"a[contains(b, ]", `xpath: offset 14: expected string literal in contains(...), got "]"`},
		{"a[contains(b, 5)]", `xpath: offset 14: expected string literal in contains(...), got "5"`},
		{"a[contains(b, 'x']", `xpath: offset 17: expected ')' after contains(...), got "]"`},
		{"a[contains(b, 'unterminated)]", `xpath: offset 14: unterminated string`},
		{"a[1.5]", `xpath: offset 2: bad position "1.5"`},
	}
	for _, tc := range cases {
		_, err := Parse(tc.input)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want %q", tc.input, tc.want)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("Parse(%q):\n got %q\nwant %q", tc.input, err.Error(), tc.want)
		}
	}
}

// nested returns n predicates nested inside each other: //a[a[…a…]].
func nested(n int) string {
	return "//a" + strings.Repeat("[a", n) + strings.Repeat("]", n)
}

// TestParseLimits: a query at MaxDepth nested predicates and MaxTerms
// steps and terms parses; one level or one term more returns a
// *LimitError naming the limit, as does a hostile query far past it.
func TestParseLimits(t *testing.T) {
	flat := func(terms int) string { // //a is two steps, each [b] two terms
		return "//a" + strings.Repeat("[b]", (terms-2)/2)
	}
	notNest := func(n int) string {
		return "//a[" + strings.Repeat("not(", n-1) + "b" + strings.Repeat(")", n-1) + "]"
	}
	for _, q := range []string{nested(MaxDepth), notNest(MaxDepth), flat(MaxTerms)} {
		if _, err := ParseQuery(q); err != nil {
			t.Errorf("%.40s…: %v", q, err)
		}
	}
	for _, c := range []struct {
		q     string
		limit string
	}{
		{nested(MaxDepth + 1), "depth"},
		{notNest(MaxDepth + 1), "depth"},
		{nested(10000), "depth"},
		{flat(MaxTerms + 2), "terms"},
		{strings.Repeat("a|", MaxTerms) + "a", "terms"},
	} {
		_, err := ParseQuery(c.q)
		var le *LimitError
		if !errors.As(err, &le) || le.Limit != c.limit {
			t.Errorf("%.40s…: error %v, want a %s LimitError", c.q, err, c.limit)
		}
		if _, err := Parse(c.q); err == nil {
			t.Errorf("Parse(%.40s…) accepted the query", c.q)
		}
	}
}
