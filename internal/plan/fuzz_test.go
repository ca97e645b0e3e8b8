package plan

import (
	"context"
	"slices"
	"strings"
	"testing"

	"staircase/internal/doc"
	"staircase/internal/spec"
	"staircase/internal/xpath"
)

// FuzzQueryDiff holds the whole planner to the reference evaluator: for
// any document of at most 2 KB and any query, Plan.Run, a cursor drain
// and RunLimit(3), under the default options, NoIndex, NoValueIndex and
// NoReorder, return spec.EvalQuery's nodes (a prefix for the limit) and
// never panic. Documents and queries that do not parse are skipped, and
// so are queries with more than two predicates, whose reference
// evaluation grows with the document to the power of their nesting.
// The seeds are the predicate shapes a semijoin serves, in both probe
// directions, the decoys next to them, chains of blocking steps and the
// child and attribute steps' nested, flat and empty contexts.
//
//	go test -run '^$' -fuzz '^FuzzQueryDiff$' -fuzztime 60s ./internal/plan
func FuzzQueryDiff(f *testing.F) {
	docs := []string{
		fixtureXML,
		`<r><p><q v="1"/>t</p><p><x v="2"/><!--c--></p><q v="3"><q v="4"/></q><?go x?></r>`,
		`<a k="1"><b>2<c>3</c></b><b k="x"><c/>4</b>5<a><b><c>6</c></b></a></a>`,
		`<r><s><x/><s><t><x/></t>u<s><t/></s></s></s><p k="1"><v>1</v><a><b/></a></p><p k="2"><v>2</v>w<a><p><v>3</v><x/></p></a></p></r>`,
		`<r><a a="1">2</a><a a="3.0"><a>4</a><b a=" 5 ">1e0</b></a><b>6<!--7--></b>8</r>`,
		childXML,
	}
	queries := []string{
		"//open_auction[reserve]/bidder", "//open_auction[bidder]/current", "//person[profile/education]",
		"//*[*/education]", "//person[text()]", "//*[comment()]", "//b[c][text()]",
		"//open_auction[current > 10][bidder]", "//person[profile/@income > 5]", "//p[q/@v >= 2]",
		"//b[. = '2']", "//*[descendant-or-self::c = '3']", "//c[ancestor::b = '2']", "//c[following::c]",
		"//bidder[descendant::increase]", "//c[preceding::b]", "//b[self::b]", "//a[descendant-or-self::c]",
		"//person[@id]", "//person[*]", "//person[node()]", "//a[b[c]/c]", "//a[b//c]", "//a[/a/b]",
		"//person[not(profile)]", "//b[c or text()]", "//b[c][2]", "//p[q/@v != 1]",
		"//p[v > 1][a]", "//p[v > 1][a/b]", "//p[v < 3]/a", "//*[x]", "//*[*/x]", "//*[text()]", "//s[t/x]",
		"//person[profile][name = 'Carol']", "//open_auction[current > 10][bidder]", "//p[q/@v >= 1][q]",
		"//*[a > 1]", "//*[@a >= 3]", "//*[* < 5]", "//*[node() = 1]", "//*[text() > 2]", "//*[@* <= 1]",
		"//a[. > 3]", "//*[descendant::a < 4]",
	}
	queries = append(queries, blockingShapes...)
	queries = append(queries, childShapes...)
	for _, d := range docs {
		for _, q := range queries {
			f.Add([]byte(d), q)
		}
	}
	f.Fuzz(func(t *testing.T, xml []byte, query string) {
		if len(xml) > 2048 || strings.Count(query, "[") > 2 {
			return
		}
		d, err := doc.ShredString(string(xml))
		if err != nil {
			return
		}
		q, err := xpath.ParseQuery(query)
		if err != nil {
			return
		}
		root := []int32{d.Root()}
		want := spec.EvalQuery(d, q, root)
		l := BuildLogical(q)
		Rewrite(l)
		env := NewEnv(d)
		for _, opts := range []*Options{nil, {NoIndex: true}, {NoValueIndex: true}, {NoReorder: true}} {
			p, err := Compile(env, l, opts)
			if err != nil {
				t.Fatalf("%s: %v", query, err)
			}
			res, err := p.Run(root)
			if err != nil {
				t.Fatalf("%s: %v", query, err)
			}
			if !slices.Equal(res.Nodes, want) {
				t.Fatalf("%s %+v: Run %v, spec %v", query, opts, res.Nodes, want)
			}
			cur, err := p.Cursor(context.Background(), root)
			if err != nil {
				t.Fatal(err)
			}
			var drained []int32
			for {
				b, err := cur.Next()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				drained = append(drained, b...)
			}
			if !slices.Equal(drained, want) {
				t.Fatalf("%s %+v: cursor %v, spec %v", query, opts, drained, want)
			}
			lr, err := p.RunLimit(context.Background(), root, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(lr.Nodes, want[:min(3, len(want))]) {
				t.Fatalf("%s %+v: RunLimit(3) %v, spec %v", query, opts, lr.Nodes, want)
			}
		}
	})
}
