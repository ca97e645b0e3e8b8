package plan

// Unit tests for the greedy ordering pass (order.go) and the semijoin
// probe direction (semijoin.go): probe direction pinned on hand-built
// fragments, empty-intermediate
// short-circuits terminating without downstream work, greedy hoisting
// of exact-count semijoins, canon invariance under ordering (the
// result-cache key), fragment-list memoization, and the results and
// work of reordered chains drained through the cursor executor.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"staircase/internal/doc"
)

// findSemiJoin returns the plan's first semijoin operator.
func findSemiJoin(t *testing.T, p *Plan) *semiJoinOp {
	t.Helper()
	for _, o := range p.ops {
		if sj, ok := o.(*semiJoinOp); ok {
			return sj
		}
	}
	t.Fatal("plan has no semiJoinOp")
	return nil
}

// TestSemiJoinProbeDirection pins the direction Plan.Run takes on a
// staircase semijoin: input-seek, whether the fragment dwarfs the input
// or not, and under NoReorder too.
func TestSemiJoinProbeDirection(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r><x/>")
	for i := 0; i < 40; i++ {
		sb.WriteString("<f/>")
	}
	sb.WriteString("</r>")
	d := shredString(t, sb.String())
	env := NewEnv(d)

	// 1 input node vs a 40-node fragment: input-seek.
	p := compileQuery(t, env, "//x[following::f]", nil)
	sj := findSemiJoin(t, p)
	res, err := p.RunRoot()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 1 {
		t.Fatalf("nodes = %v", res.Nodes)
	}
	if got := res.ops[sj.opID()].probeDir; got != probeInputSeek {
		t.Errorf("skewed semijoin probeDir = %d, want input-seek", got)
	}

	// NoReorder takes the same direction.
	p = compileQuery(t, env, "//x[following::f]", &Options{NoReorder: true})
	sj = findSemiJoin(t, p)
	res, err = p.RunRoot()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ops[sj.opID()].probeDir; got != probeInputSeek {
		t.Errorf("NoReorder semijoin probeDir = %d, want input-seek", got)
	}

	// Comparable cardinalities on the fixture: input-seek as well.
	env = NewEnv(fixture(t))
	p = compileQuery(t, env, "//person[descendant::name]", nil)
	sj = findSemiJoin(t, p)
	res, err = p.RunRoot()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ops[sj.opID()].probeDir; got != probeInputSeek {
		t.Errorf("balanced semijoin probeDir = %d, want input-seek", got)
	}
}

// TestEmptyIntermediateShortCircuit: a zero-cardinality fragment on the
// branch spine compiles to an EmptyResult wrapper; execution emits
// nothing, runs no downstream operator and does no staircase work.
func TestEmptyIntermediateShortCircuit(t *testing.T) {
	env := NewEnv(fixture(t))
	p := compileQuery(t, env, "//nosuch/ancestor::person", nil)
	e, ok := p.root.(*emptyOp)
	if !ok {
		t.Fatalf("root is %T, want *emptyOp", p.root)
	}
	if e.reason == "" {
		t.Error("emptyOp has no reason")
	}
	if len(p.orderNotes) == 0 {
		t.Error("empty short-circuit not recorded in order notes")
	}
	res, err := p.RunRoot()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 0 {
		t.Fatalf("nodes = %v, want empty", res.Nodes)
	}
	// actual=0 on the wrapper, no execution below it.
	if ost := res.ops[e.opID()]; !ost.ran || ost.in != 0 || ost.out != 0 {
		t.Errorf("emptyOp stat = %+v, want ran with 0 -> 0", ost)
	}
	var walk func(o planNode)
	walk = func(o planNode) {
		if ost := res.ops[o.opID()]; ost.ran {
			t.Errorf("%T below EmptyResult ran (%d -> %d)", o, ost.in, ost.out)
		}
		for _, k := range o.kids() {
			walk(k)
		}
	}
	walk(e.inner)
	for i, st := range res.Steps {
		if st.Core.Scanned != 0 || st.Core.Copied != 0 {
			t.Errorf("step %d did staircase work: %+v", i, st.Core)
		}
	}
	// The streaming executor short-circuits identically.
	lr, err := p.RunLimitRoot(context.Background(), math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Nodes) != 0 {
		t.Fatalf("cursor nodes = %v, want empty", lr.Nodes)
	}
}

// TestGreedyHoistOrder: with exact fragment counts available, the
// smaller-fragment semijoin evaluates first regardless of source
// order, and the result is unchanged.
func TestGreedyHoistOrder(t *testing.T) {
	env := NewEnv(fixture(t))
	q := "//site[descendant::person][descendant::education]"
	before := Reorders()
	p := compileQuery(t, env, q, nil)
	if Reorders() == before {
		t.Error("plan_reorders_total did not move")
	}
	if len(p.orderNotes) == 0 {
		t.Fatal("no order notes on a reordered plan")
	}
	if !strings.Contains(p.orderNotes[0], "[descendant::education] [descendant::person]") {
		t.Errorf("greedy order note = %q, want education hoisted first", p.orderNotes[0])
	}
	if len(p.opOrder) == 0 {
		t.Error("no per-operator order annotations")
	}
	got, err := p.RunRoot()
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, env, q, &Options{NoReorder: true})
	if !equal32(got.Nodes, want) {
		t.Fatalf("reordered %v != source order %v", got.Nodes, want)
	}
}

// TestCanonUnchangedByOrdering is the cache-key invariance check:
// ordering decisions are execution attributes, so the canonical plan
// string — the result-cache and shared-scan key — must be identical
// with and without the greedy pass.
func TestCanonUnchangedByOrdering(t *testing.T) {
	env := NewEnv(fixture(t))
	for _, q := range []string{
		"//site[descendant::person][descendant::education]",
		"//person[profile][name = 'Carol']",
		"//open_auction[current > 10][descendant::bidder]",
		"//nosuch/ancestor::person",
		"//person[profile][name = 'Carol'] | //bidder[descendant::increase]",
	} {
		ordered := compileQuery(t, env, q, nil)
		plain := compileQuery(t, env, q, &Options{NoReorder: true})
		if ordered.Canon() != plain.Canon() {
			t.Errorf("canon differs under ordering for %s:\n ordered %s\n   plain %s",
				q, ordered.Canon(), plain.Canon())
		}
	}
}

// TestFragScanMemoized: the fragment list of a prepared plan is
// resolved once and shared by subsequent executions.
func TestFragScanMemoized(t *testing.T) {
	env := NewEnv(fixture(t))
	p := compileQuery(t, env, "/descendant::person", nil)
	var frag *fragScan
	for _, o := range p.ops {
		if f, ok := o.(*fragScan); ok {
			frag = f
		}
	}
	if frag == nil {
		t.Fatal("plan has no fragScan")
	}
	l1, _ := frag.nodes(env.Doc, &p.opts)
	l2, _ := frag.nodes(env.Doc, &p.opts)
	if len(l1) == 0 {
		t.Fatalf("resolve failed: %v", l1)
	}
	if &l1[0] != &l2[0] {
		t.Error("fragment list resolved twice (not memoized)")
	}
	// Repeated executions stay correct over the shared list.
	a, err := p.RunRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.RunRoot()
	if err != nil {
		t.Fatal(err)
	}
	if !equal32(a.Nodes, b.Nodes) {
		t.Fatalf("repeated runs differ: %v vs %v", a.Nodes, b.Nodes)
	}
}

// TestReorderedCursorMatchesBatch: reordered multi-predicate steps
// stream through their filters' stacked cursors in the greedy order;
// the drained sequence must be byte-identical to batch execution and to
// the NoReorder plan.
func TestReorderedCursorMatchesBatch(t *testing.T) {
	env := NewEnv(fixture(t))
	for _, q := range []string{
		"//site[descendant::person][descendant::education]",
		"//person[profile][name = 'Carol']",
		"//open_auction[descendant::bidder][current > 10]",
		"//person[name][profile][descendant::education]",
	} {
		batch := run(t, env, q, nil)
		plain := run(t, env, q, &Options{NoReorder: true})
		if !equal32(batch, plain) {
			t.Fatalf("%s: reordered batch %v != NoReorder %v", q, batch, plain)
		}
		p := compileQuery(t, env, q, nil)
		lr, err := p.RunLimitRoot(context.Background(), math.MaxInt)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !equal32(lr.Nodes, batch) {
			t.Fatalf("%s: cursor %v != batch %v", q, lr.Nodes, batch)
		}
	}
}

// TestReorderedStreamWork pins what reordered filter chains cost when
// the cursor executor drains them: for LIMIT 1 and a full drain, the
// result nodes and each step's staircase counters. Seeks and early
// exits must keep reaching the base join: the second query's first
// member is a climb that sweeps, seeking the //person join to its one
// certified person, and the last query's first evaluated member is an
// ancestor staircase semijoin whose probe seeks the //name join past
// every name outside a person.
func TestReorderedStreamWork(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 60; i++ {
		if i%10 == 9 {
			fmt.Fprintf(&sb, "<person><name>n%d</name></person>", i)
		} else {
			fmt.Fprintf(&sb, "<x><y/><name>n%d</name><y/></x>", i)
		}
	}
	sb.WriteString("</r>")
	fix, vpath, anc := fixture(t), shredString(t, valuePathXML()), shredString(t, sb.String())
	// drain is one execution's outcome: the result nodes and, per step,
	// Core.Scanned and Core.Skipped.
	type drain struct {
		nodes []int32
		work  [][2]int64
	}
	for _, tc := range []struct {
		d          *doc.Document
		q          string
		first, all drain // LIMIT 1, full drain
	}{
		{fix, "//site[descendant::person][descendant::education]",
			drain{nil, [][2]int64{{0, 0}}}, drain{nil, [][2]int64{{0, 0}}}},
		{fix, "//person[profile][name = 'Carol']",
			drain{[]int32{13}, [][2]int64{{1, 2}}}, drain{[]int32{13}, [][2]int64{{1, 2}}}},
		{fix, "//open_auction[descendant::bidder][current > 10]",
			drain{[]int32{21}, [][2]int64{{2, 0}}}, drain{[]int32{21}, [][2]int64{{2, 0}}}},
		{fix, "//person[name][profile][descendant::education]",
			drain{[]int32{2}, [][2]int64{{3, 0}}}, drain{[]int32{2, 13}, [][2]int64{{3, 0}}}},
		{vpath, "//p[q/@v > 10][q/@v < 20]",
			drain{[]int32{34}, [][2]int64{{15, 0}}},
			drain{[]int32{34, 37, 40, 43, 46, 49, 52, 55, 58}, [][2]int64{{79, 0}}}},
		{anc, "//name[. != 'n0'][ancestor::person]",
			drain{[]int32{47}, [][2]int64{{15, 9}}},
			drain{[]int32{47, 95, 143, 191, 239, 287}, [][2]int64{{46, 14}}}},
	} {
		p := compileQuery(t, NewEnv(tc.d), tc.q, nil)
		if len(p.orderNotes) == 0 {
			t.Errorf("%s: greedy pass did not reorder", tc.q)
		}
		for _, want := range []struct {
			limit int
			drain
		}{{1, tc.first}, {math.MaxInt, tc.all}} {
			lr, err := p.RunLimitRoot(context.Background(), want.limit)
			if err != nil {
				t.Fatalf("%s: %v", tc.q, err)
			}
			if !equal32(lr.Nodes, want.nodes) {
				t.Errorf("%s limit %d: nodes %v, want %v", tc.q, want.limit, lr.Nodes, want.nodes)
			}
			var work [][2]int64
			for _, st := range lr.Steps {
				work = append(work, [2]int64{st.Core.Scanned, st.Core.Skipped})
			}
			if !slices.Equal(work, want.work) {
				t.Errorf("%s limit %d: scanned/skipped per step %v, want %v", tc.q, want.limit, work, want.work)
			}
		}
	}
}

// shredString builds a document from literal XML.
func shredString(t testing.TB, s string) *doc.Document {
	t.Helper()
	d, err := doc.ShredString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// equal32 compares two node sequences.
func equal32(a, b []int32) bool {
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
