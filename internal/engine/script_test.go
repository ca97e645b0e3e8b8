package engine

import (
	"context"
	"fmt"
	"testing"

	"staircase/internal/spec"
	"staircase/internal/xmark"
	"staircase/internal/xpath"
)

// The benchmark checks every operation against digests from the
// reference evaluator (internal/spec), which it reaches through
// LegacyEval. TestBenchmarkScriptsMatchSpec shows, on a small XMark
// document with values, that the plan's three faces agree with it on
// every query the benchmark runs: Plan.Run, a cursor drain and limited
// prefixes.

// scriptQuery is one query of a benchmark script with the limit its
// workload runs it under (0: the full result).
type scriptQuery struct {
	text  string
	limit int
	// nonEmpty marks the serve_adhoc instances whose constant was
	// chosen for a non-empty result.
	nonEmpty bool
}

// scriptStep builds the two-step path /descendant::a/<axis>::b.
func scriptStep(a, axis, b string) string {
	return "/descendant::" + a + "/" + axis + "::" + b
}

// benchmarkScriptQueries lists the queries of the four benchmark
// workloads, copied from benchmark/script.go (a module of its own, which
// this package cannot import). The seeded constants there — serve_hot's
// ids, serve_adhoc's comparison literals — are fixed here: each
// serve_adhoc family runs at both ends of its range and at a constant
// chosen to give a non-empty result on the test document.
func benchmarkScriptQueries() []scriptQuery {
	var qs []scriptQuery
	add := func(limit int, texts ...string) {
		for _, t := range texts {
			qs = append(qs, scriptQuery{text: t, limit: limit})
		}
	}
	// axes_batch
	add(0,
		scriptStep("education", "preceding", "interest"), scriptStep("closed_auction", "preceding", "seller"),
		scriptStep("seller", "following", "bidder"), scriptStep("profile", "descendant", "education"),
		scriptStep("keyword", "ancestor", "listitem"), scriptStep("open_auction", "descendant", "bidder"),
		scriptStep("keyword", "preceding", "text()"), scriptStep("increase", "ancestor", "bidder"),
		scriptStep("bidder", "descendant", "increase"), "//item//text()/following::keyword",
		scriptStep("person", "preceding", "*"), scriptStep("category", "following", "node()"),
		scriptStep("text()", "ancestor", "node()"), "/descendant::node()")
	// stream_first_k
	add(10,
		scriptStep("open_auction", "descendant", "bidder"), scriptStep("keyword", "ancestor", "listitem"),
		scriptStep("interest", "ancestor", "person"), scriptStep("text()", "ancestor", "node()"),
		scriptStep("bidder", "descendant", "increase"), scriptStep("increase", "ancestor", "bidder"),
		scriptStep("profile", "descendant", "education"), scriptStep("education", "preceding", "interest"),
		scriptStep("seller", "following", "bidder"), "//person[profile/education]",
		"//item//text()/following::keyword")
	add(10000, scriptStep("text()", "ancestor", "node()"), scriptStep("increase", "ancestor", "bidder"))
	// serve_hot
	for _, p := range [][2]string{
		{"person", "name"}, {"person", "emailaddress"}, {"person", "phone"}, {"person", "address"},
		{"address", "city"}, {"address", "country"}, {"address", "zipcode"}, {"address", "street"},
		{"person", "profile"}, {"profile", "interest"}, {"profile", "gender"}, {"profile", "business"},
		{"profile", "age"}, {"person", "watches"}, {"watches", "watch"}, {"open_auction", "initial"},
		{"open_auction", "reserve"}, {"open_auction", "current"}, {"open_auction", "itemref"}, {"open_auction", "seller"},
		{"open_auction", "annotation"}, {"annotation", "author"}, {"annotation", "description"}, {"annotation", "happiness"},
		{"open_auction", "quantity"}, {"open_auction", "type"}, {"open_auction", "interval"}, {"interval", "start"},
		{"interval", "end"}, {"closed_auction", "buyer"}, {"closed_auction", "price"}, {"closed_auction", "date"},
		{"item", "location"}, {"item", "payment"}, {"item", "shipping"}, {"mail", "from"},
	} {
		add(10, scriptStep(p[0], "descendant", p[1]))
	}
	for _, id := range []int{0, 7} {
		add(0, fmt.Sprintf("/descendant::person[@id = 'person%d']/name", id),
			fmt.Sprintf("/descendant::open_auction[@id = 'open_auction%d']/bidder/increase", id))
	}
	add(0,
		scriptStep("profile", "descendant", "education"), scriptStep("interest", "ancestor", "person"),
		scriptStep("closed_auction", "descendant", "price"), scriptStep("keyword", "ancestor", "listitem"),
		scriptStep("person", "descendant", "interest"), scriptStep("open_auction", "descendant", "initial"),
		"//item//text()/following::keyword",
		scriptStep("closed_auction", "preceding", "seller"), scriptStep("annotation", "descendant", "happiness"),
		scriptStep("person", "descendant", "emailaddress"), scriptStep("item", "descendant", "incategory"),
		scriptStep("increase", "ancestor", "bidder"), scriptStep("bidder", "descendant", "increase"),
		scriptStep("seller", "following", "bidder"), scriptStep("open_auction", "descendant", "personref"),
		scriptStep("keyword", "ancestor", "node()"))
	// serve_adhoc: base-with-predicate [key op C] rest tail, C in
	// hundredths at both ends of the family's range and at nonEmpty.
	for _, f := range []struct {
		pre, key, op, post, tail string
		lo, hi, nonEmpty         int
	}{
		{"//open_auction", "initial", ">", "", "/bidder/increase", 44000, 50000, 10000},
		{"//closed_auction", "price", "<", "", "/seller", 200, 6200, 20000},
		{"//open_auction", "current", ">", "[reserve]", "/seller", 44000, 50000, 10000},
		{"//open_auction[quantity = 2]", "initial", ">", "[bidder]", "/itemref", 44000, 50000, 5000},
		{"//open_auction", "initial", ">", "", "/bidder/*", 2000, 20000, 2000},
		{"//open_auction", "current", "<", "", "/descendant::*", 30000, 48000, 30000},
		{"//closed_auction", "price", ">", "", "/descendant::*", 2000, 20000, 2000},
		{"//person", "profile/@income", ">", "", "/*", 1000000, 3000000, 3000000},
	} {
		for i, c := range []int{f.nonEmpty, f.lo, f.hi} {
			text := fmt.Sprintf("%s[%s %s %.2f]%s%s", f.pre, f.key, f.op, float64(c)/100, f.post, f.tail)
			qs = append(qs, scriptQuery{text: text, nonEmpty: i == 0})
		}
	}
	return qs
}

// TestBenchmarkScriptsMatchSpec runs every benchmark query on a 0.1 MB
// XMark document with values and requires one node sequence from
// spec.EvalQuery, the LegacyEval route under the benchmark oracle's
// options, Plan.Run, a cursor drain and every limited prefix.
func TestBenchmarkScriptsMatchSpec(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.1, Seed: 5, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	oracle := &Options{LegacyEval: true, Strategy: StaircaseNoSkip, NoIndex: true, NoValueIndex: true, NoReorder: true}
	for _, q := range benchmarkScriptQueries() {
		pq, err := xpath.ParseQuery(q.text)
		if err != nil {
			t.Fatal(err)
		}
		want := spec.EvalQuery(d, pq, []int32{d.Root()})
		if q.nonEmpty && len(want) == 0 {
			t.Errorf("%s is empty on the test document; pick another constant", q.text)
		}
		legacy, err := e.EvalString(q.text, oracle)
		if err != nil {
			t.Fatalf("legacy %s: %v", q.text, err)
		}
		if !eq32(legacy.Nodes, want) {
			t.Fatalf("legacy != spec for %s:\n got %v\nwant %v", q.text, legacy.Nodes, want)
		}
		p, err := prepare(e, q.text, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.RunRoot()
		if err != nil {
			t.Fatal(err)
		}
		if !eq32(res.Nodes, want) {
			t.Fatalf("Plan.Run != spec for %s:\n got %v\nwant %v", q.text, res.Nodes, want)
		}
		checkStreaming(t, e, q.text, &Options{}, want)
		if q.limit > 0 {
			lr, err := p.RunLimitRoot(context.Background(), q.limit)
			if err != nil {
				t.Fatal(err)
			}
			if !eq32(lr.Nodes, want[:min(q.limit, len(want))]) {
				t.Errorf("RunLimit(%d) of %s = %v, want the prefix of %v", q.limit, q.text, lr.Nodes, want)
			}
		}
	}
}
