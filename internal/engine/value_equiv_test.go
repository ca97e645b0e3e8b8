// Differential tests for the value index: every value predicate must
// produce byte-identical results whether it is served from value-index
// fragments (the semijoin rewrite), re-evaluated per node with
// the index disabled (Options.NoValueIndex), or run through the
// legacy evaluator. Streaming (cursor drain, RunLimit prefixes) is
// checked against batch execution on every knob combination, and the
// whole suite spawns one goroutine per query so `go test -race`
// exercises concurrent plan execution against the lazily built index.
package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"staircase/internal/doc"
)

// valueTexts is the pool of text/attribute values for random
// documents. It deliberately mixes clean integers, decimals,
// whitespace-padded numerics, negatives, scientific notation,
// non-numeric words, multi-word strings, and a value longer than
// vindex.MaxKeyLen (320 bytes) so lookups have to consult the
// overflow list.
var valueTexts = []string{
	"5", "10", "10.5", "100", " 42 ", "-3.25", "1e2", "0",
	"alpha", "beta", "caesar", "brutus and caesar", "t", "Zulu",
	strings.Repeat("long", 80),
}

// randomValueDoc is like randomDoc but with varied text and attribute
// values, so comparison predicates and contains() partition the node
// set non-trivially.
func randomValueDoc(rng *rand.Rand, n int) *doc.Document {
	b := doc.NewBuilder()
	b.OpenElem("root")
	depth := 1
	tags := []string{"item", "price", "name", "val"}
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 4:
			b.OpenElem(tags[rng.Intn(len(tags))])
			if rng.Intn(3) == 0 {
				b.Attr("price", valueTexts[rng.Intn(len(valueTexts))])
			}
			if rng.Intn(4) == 0 {
				b.Attr("cat", valueTexts[rng.Intn(len(valueTexts))])
			}
			depth++
		case r < 6 && depth > 1:
			b.CloseElem()
			depth--
		default:
			b.Text(valueTexts[rng.Intn(len(valueTexts))])
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

// randValueTest draws a node test for a value predicate's step. cat
// names attributes only, so as an element test it matches nothing.
func randValueTest(rng *rand.Rand) string {
	switch rng.Intn(6) {
	case 0:
		return "*"
	case 1:
		return "node()"
	case 2:
		return "text()"
	default:
		tags := []string{"item", "price", "name", "cat"}
		return tags[rng.Intn(len(tags))]
	}
}

// randValuePred builds a random value predicate. It covers every
// comparison operator (including != which is never index-served),
// contains(), numeric and string literals, and both rewrite-eligible
// paths (self, child, attribute, the partitioning axes,
// descendant-or-self, and chains of 2–3 child steps ending in a child or
// attribute step, some through a prefix tag no element has) and
// ineligible ones (following-sibling, steps after a non-child step) so
// PredFilter is exercised alongside the fragment probes.
func randValuePred(rng *rand.Rand) string {
	path := "."
	switch r := rng.Intn(8); {
	case r < 2:
	case r < 4:
		path = ""
		for i := 1 + rng.Intn(2); i > 0; i-- {
			prefix := []string{"item", "cat", "*"}
			path += "child::" + prefix[rng.Intn(len(prefix))] + "/"
		}
		if rng.Intn(3) == 0 {
			path += "attribute::price"
		} else {
			path += "child::" + randValueTest(rng)
		}
	default:
		axes := []string{
			"attribute", "child", "self",
			"descendant", "descendant-or-self",
			"ancestor", "following", "preceding", "following-sibling",
		}
		path = axes[rng.Intn(len(axes))] + "::" + randValueTest(rng)
		if rng.Intn(5) == 0 {
			path += "/child::node()" // rewritten only after a child::name or child::* step
		}
	}
	if rng.Intn(4) == 0 {
		subs := []string{"alpha", "caesar", "a", "long", "1"}
		return fmt.Sprintf("contains(%s, '%s')", path, subs[rng.Intn(len(subs))])
	}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	op := ops[rng.Intn(len(ops))]
	if rng.Intn(2) == 0 {
		// No negative literals: the grammar has no unary minus.
		nums := []string{"5", "10", "42", "100", "10.5", "0"}
		return fmt.Sprintf("%s %s %s", path, op, nums[rng.Intn(len(nums))])
	}
	lits := []string{"alpha", "beta", "caesar", "t", "10", "Zulu"}
	return fmt.Sprintf("%s %s '%s'", path, op, lits[rng.Intn(len(lits))])
}

func randValueQuery(rng *rand.Rand) string {
	bases := []string{
		"//item", "//*", "/descendant::item", "//price",
		"//item/descendant-or-self::*", "//name", "//val",
	}
	q := bases[rng.Intn(len(bases))]
	q += "[" + randValuePred(rng) + "]"
	if rng.Intn(3) == 0 {
		q += "[" + randValuePred(rng) + "]"
	}
	switch rng.Intn(4) {
	case 0:
		q += "/child::node()"
	case 1:
		q += "/@price"
	}
	return q
}

// TestValuePushdownEquivalence is the differential property suite:
// random value-rich documents x random value-predicate queries,
// checking that the index-served plan, the NoValueIndex plan, and the
// legacy evaluator agree, and that cursors and RunLimit prefixes
// match batch output under every knob combination.
func TestValuePushdownEquivalence(t *testing.T) {
	trials := quickTrials(5)
	queriesPer := 40
	if testing.Short() {
		trials, queriesPer = 2, 12
	}
	knobs := []Options{
		{},
		{NoValueIndex: true},
		{NoIndex: true},
		{NoValueIndex: true, NoIndex: true},
		{Pushdown: PushAlways},
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7300 + trial)))
		d := randomValueDoc(rng, 300+rng.Intn(500))
		e := New(d)
		var wg sync.WaitGroup
		for qi := 0; qi < queriesPer; qi++ {
			q := randValueQuery(rng)
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				want, err := e.EvalString(q, &Options{LegacyEval: true})
				if err != nil {
					t.Errorf("legacy %s: %v", q, err)
					return
				}
				for i := range knobs {
					opts := knobs[i]
					got, err := e.EvalString(q, &opts)
					if err != nil {
						t.Errorf("%s %+v: %v", q, opts, err)
						return
					}
					if !eq32(got.Nodes, want.Nodes) {
						t.Errorf("%s %+v:\n got %v\nwant %v", q, opts, got.Nodes, want.Nodes)
						return
					}
					checkStreaming(t, e, q, &opts, want.Nodes)
				}
			}(q)
		}
		wg.Wait()
	}
}

// TestValuePredicateRewriteFires pins that eligible predicates are
// compiled to a semijoin over a value fragment, that EXPLAIN reports the
// fragment source, and that disabling the index compiles them to
// PredFilter and changes neither the canonical plan nor the result.
func TestValuePredicateRewriteFires(t *testing.T) {
	d := fixture(t)
	e := New(d)
	cases := []struct {
		q      string
		source string // substring expected in EXPLAIN text
	}{
		{"//open_auction[current > 10]", "numeric range"},
		{"//bidder[increase >= 10]", "numeric range"},
		{"//person[@id >= 'p2']", "string range"},
		{"//person[contains(name, 'aro')]", "substring scan"},
		{"//name[. = 'Alice']", "string range"},
		{"//person[profile/age > 35]", "numeric range"},
	}
	for _, tc := range cases {
		p, err := prepare(e, tc.q, nil)
		if err != nil {
			t.Fatalf("prepare %s: %v", tc.q, err)
		}
		found := false
		for _, rw := range p.Rewrites() {
			if rw == "semijoin" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: rewrite list %v lacks semijoin", tc.q, p.Rewrites())
		}
		got, err := p.RunRoot()
		if err != nil {
			t.Fatalf("run %s: %v", tc.q, err)
		}
		txt := p.ExplainText(got)
		if !strings.Contains(txt, "ValueScan") {
			t.Errorf("%s: explain lacks ValueScan:\n%s", tc.q, txt)
		}
		if !strings.Contains(txt, tc.source) {
			t.Errorf("%s: explain lacks source %q:\n%s", tc.q, tc.source, txt)
		}

		// Canonical string must be identical with the index disabled,
		// and the plain/no-index runs must agree node for node.
		pNo, err := prepare(e, tc.q, &Options{NoValueIndex: true})
		if err != nil {
			t.Fatalf("prepare noindex %s: %v", tc.q, err)
		}
		if p.Canon() != pNo.Canon() {
			t.Errorf("%s: canon differs with NoValueIndex:\n %s\n %s", tc.q, p.Canon(), pNo.Canon())
		}
		gotNo, err := pNo.RunRoot()
		if err != nil {
			t.Fatalf("run noindex %s: %v", tc.q, err)
		}
		txtNo := pNo.ExplainText(gotNo)
		if !strings.Contains(txtNo, "PredFilter") || strings.Contains(txtNo, "SemiJoin") {
			t.Errorf("%s: NoValueIndex explain is not a PredFilter:\n%s", tc.q, txtNo)
		}
		if !eq32(got.Nodes, gotNo.Nodes) {
			t.Errorf("%s: indexed %v != rescan %v", tc.q, got.Nodes, gotNo.Nodes)
		}
		if len(got.Nodes) == 0 {
			t.Errorf("%s: expected non-empty result on fixture", tc.q)
		}
	}
}

// TestValuePredicateNotRewritten pins the eligibility guards: nested
// predicates, != comparisons, axes no relation serves and multi-step
// paths other than child chains must stay on the per-node PredFilter
// path (and
// still produce correct results — covered by the fixture matrix; here
// we only assert the rewrite did not fire).
func TestValuePredicateNotRewritten(t *testing.T) {
	d := fixture(t)
	e := New(d)
	for _, q := range []string{
		"//open_auction[current != 10]",      // != is not range-servable
		"//name[parent::person = 'x']",       // parent axis
		"//open_auction[bidder[increase=5]]", // nested predicate
		"//person[profile//age > 35]",        // descendant step in a chain
		"//person[profile[age]/age > 35]",    // predicate on a prefix step
		"//person[@id/x = 'a']",              // attribute prefix step
		"//person[*/descendant::age > 35]",   // chain ending in descendant
		"//person[profile/age != 35]",        // != over a chain
	} {
		p, err := prepare(e, q, nil)
		if err != nil {
			t.Fatalf("prepare %s: %v", q, err)
		}
		for _, rw := range p.Rewrites() {
			if rw == "semijoin" {
				t.Errorf("%s: unexpectedly rewritten to semijoin", q)
			}
		}
	}
}
