package plan

// Tests for the value-index fragments (value.go): a valueScan fragment
// must hold exactly the nodes a per-node evaluation accepts, whatever
// node test and axis the predicate names, and every execution face
// must agree on the result, whichever way the fragment was put into
// document order. The cost test pins that a fragment allocates for its
// members only.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/doc"
	"staircase/internal/spec"
	"staircase/internal/vindex"
	"staircase/internal/xpath"
)

// valueDocXML generates a small document whose element text and
// attributes draw from a vocabulary with duplicates, several spellings
// of one number, negatives and one value past the index key cap.
func valueDocXML(rng *rand.Rand) string {
	vocab := []string{"10", "10.0", " 10 ", "1e1", "-5", "0", "2.5", "30", "300", "a", "ab", "b", "caro", "",
		strings.Repeat("long", vindex.MaxKeyLen/4+1)}
	names := []string{"a", "b", "c"}
	var sb strings.Builder
	var emit func(depth int)
	emit = func(depth int) {
		name := names[rng.Intn(len(names))]
		fmt.Fprintf(&sb, "<%s", name)
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, " id=%q", vocab[rng.Intn(len(vocab))])
		}
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&sb, " k=%q", vocab[rng.Intn(len(vocab))])
		}
		sb.WriteString(">")
		if depth < 4 && rng.Intn(3) > 0 {
			for i := rng.Intn(4); i >= 0; i-- {
				emit(depth + 1)
			}
		} else {
			sb.WriteString(vocab[rng.Intn(len(vocab))])
		}
		fmt.Fprintf(&sb, "</%s>", name)
	}
	sb.WriteString("<r>")
	for i := 0; i < 6; i++ {
		emit(0)
	}
	sb.WriteString("</r>")
	return sb.String()
}

// findValueScan returns the plan's single value-scan leaf.
func findValueScan(t *testing.T, p *Plan) *valueScan {
	t.Helper()
	for _, o := range p.ops {
		if vs, ok := o.(*valueScan); ok {
			return vs
		}
	}
	t.Fatal("plan has no valueScan")
	return nil
}

// TestValueScanFragments: over random documents, predicates under a
// name test, *, text(), node() and the attribute axis (by name and by
// *), on every probe axis and operator, the fragment equals a
// brute-force pass over all nodes and is strictly ascending; the
// result equals the NoValueIndex plan's; the drained cursor and every
// limit prefix equal the batch result. Each plan runs from several
// goroutines at once, so -race sees the once-only materialisation.
func TestValueScanFragments(t *testing.T) {
	steps := []string{"a", "*", "text()", "node()", "@id", "@*",
		"descendant::b", "descendant::text()", "descendant-or-self::*", "descendant-or-self::node()", "."}
	preds := []string{"= 10", "< 10", "<= 2.5", "> 0", ">= 30", "> 1000", "< 0", "<= 0",
		"= '10'", "< 'a'", "<= 'ab'", "> '10.0'", ">= 'b'", "= 'nope'"}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 4; round++ {
		d := shredString(t, valueDocXML(rng))
		env := NewEnv(d)
		var queries []string
		for _, s := range steps {
			for _, pr := range preds {
				queries = append(queries, fmt.Sprintf("//*[%s %s]", s, pr))
			}
			queries = append(queries, fmt.Sprintf("//*[contains(%s, 'a')]", s), fmt.Sprintf("//*[contains(%s, '0')]", s))
		}
		for _, q := range queries {
			p := compileQuery(t, env, q, nil)
			vs := findValueScan(t, p)
			want := run(t, env, q, &Options{NoValueIndex: true})

			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := p.RunRoot()
					if err != nil {
						t.Errorf("%s: %v", q, err)
					} else if !equal32(res.Nodes, want) {
						t.Errorf("round %d: %s = %v, NoValueIndex %v", round, q, res.Nodes, want)
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}

			frag, _ := vs.nodes(d, &p.opts)
			var brute []int32
			for v := int32(0); v < int32(d.Size()); v++ {
				if nodePassesTest(d, vs.pa, vs.test, v) && vs.matches(d.StringValue(v)) {
					brute = append(brute, v)
				}
			}
			if !equal32(frag, brute) {
				t.Fatalf("round %d: %s fragment %v, brute force %v", round, q, frag, brute)
			}

			cur, err := p.CursorRoot(context.Background())
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
			if !equal32(drained, want) {
				t.Fatalf("round %d: %s cursor %v, batch %v", round, q, drained, want)
			}
			for _, k := range []int{1, 2, len(want), math.MaxInt} {
				if k == 0 {
					continue
				}
				lr, err := p.RunLimitRoot(context.Background(), k)
				if err != nil {
					t.Fatal(err)
				}
				if !equal32(lr.Nodes, want[:min(k, len(want))]) {
					t.Fatalf("round %d: %s limit %d = %v, batch %v", round, q, k, lr.Nodes, want)
				}
			}
		}
	}
}

// valuePathXML is a hundred <p><q v="i"/></p> records followed by
// decoys that hold a v attribute one hop off: on an x child, on a q
// outside any p, and on a q nested in a q, whose climb ends at the outer
// q instead of the p.
func valuePathXML() string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, `<p><q v="%d"/></p>`, i)
	}
	sb.WriteString(`<p><x v="1000"/></p><q v="1000"/><p><q><q v="1000"/></q></p></r>`)
	return sb.String()
}

// TestValuePathProbeDirections: a two-hop predicate path (q/@v) climbs
// the parent column in both probe directions on both faces, and agrees
// with the per-node program on valuePathXML's decoys. A climb sweeps
// when its fragment is no larger than its input: 102 p elements, read
// from the batch input and from the compile-time bound alike.
func TestValuePathProbeDirections(t *testing.T) {
	env := NewEnv(shredString(t, valuePathXML()))
	for _, tc := range []struct {
		q    string
		dir  int8
		want int
	}{
		// 4 fragment nodes: sweep.
		{"//p[q/@v > 98]", probeFragSweep, 1},
		// input = fragment = 102: sweep.
		{"//p[q/@v >= 1]", probeFragSweep, 99},
		// input = fragment - 1: probe per p.
		{"//p[q/@v >= 0]", probeInputSeek, 100},
	} {
		p := compileQuery(t, env, tc.q, nil)
		var vj *semiJoinOp
		for _, o := range p.ops {
			if v, ok := o.(*semiJoinOp); ok {
				vj = v
			}
		}
		if vj == nil || len(vj.up) != 1 {
			t.Fatalf("%s: not a one-climb semijoin: %+v", tc.q, vj)
		}
		if _, ok := vj.frag.(*valueScan); !ok {
			t.Fatalf("%s: semijoin over %T, want a value fragment", tc.q, vj.frag)
		}
		res, err := p.RunRoot()
		if err != nil {
			t.Fatal(err)
		}
		want := run(t, env, tc.q, &Options{NoValueIndex: true})
		if len(res.Nodes) != tc.want || !equal32(res.Nodes, want) {
			t.Errorf("%s = %d nodes %v, NoValueIndex %v", tc.q, len(res.Nodes), res.Nodes, want)
		}
		if got := res.ops[vj.opID()].probeDir; got != tc.dir {
			t.Errorf("%s: probeDir = %d, want %d", tc.q, got, tc.dir)
		}
		lr, err := p.RunLimitRoot(context.Background(), math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		if !equal32(lr.Nodes, want) {
			t.Errorf("%s: cursor %v, NoValueIndex %v", tc.q, lr.Nodes, want)
		}
		if got := lr.ops[vj.opID()].probeDir; got != tc.dir {
			t.Errorf("%s: cursor probeDir = %d, want %d", tc.q, got, tc.dir)
		}
	}

	// Two value semijoins on one step stream through their cursors. The
	// 20-node fragment sweeps the 102 p elements; its certified count
	// bounds the input of the 92-node fragment, which seeks.
	q := "//p[q/@v > 10][q/@v < 20]"
	p := compileQuery(t, env, q, nil)
	var vjs []*semiJoinOp
	for _, o := range p.ops {
		if v, ok := o.(*semiJoinOp); ok {
			vjs = append(vjs, v)
		}
	}
	if len(vjs) != 2 {
		t.Fatalf("%s: %d value semijoins, want 2", q, len(vjs))
	}
	lr, err := p.RunLimitRoot(context.Background(), math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, env, q, &Options{NoValueIndex: true})
	if len(want) != 9 || !equal32(lr.Nodes, want) || !equal32(run(t, env, q, nil), want) {
		t.Errorf("%s: cursor %v, NoValueIndex %v", q, lr.Nodes, want)
	}
	for _, v := range vjs {
		dir := probeInputSeek
		if v.label() == "[child::q/attribute::v < 20]" {
			dir = probeFragSweep
		}
		if ost := lr.ops[v.opID()]; !ost.ran || !ost.indexed || ost.probeDir != dir {
			t.Errorf("%s: %s stat %+v, want an indexed probeDir %d", q, v.label(), ost, dir)
		}
	}
}

// TestValueScanMaterializeCost: materialising //open_auction[initial >
// C] allocates in proportion to the matching initial nodes, not to the
// numeric nodes above C the index holds (the lookup reads the initial
// block of the name-major partition only).
func TestValueScanMaterializeCost(t *testing.T) {
	const auctions, others = 50, 20000
	var sb strings.Builder
	sb.WriteString("<site>")
	for i := 0; i < auctions; i++ {
		fmt.Fprintf(&sb, "<open_auction><initial>%d</initial></open_auction>", 1000+i)
	}
	for i := 0; i < others; i++ {
		fmt.Fprintf(&sb, "<current>%d</current>", 2000+i%97)
	}
	sb.WriteString("</site>")
	d := shredString(t, sb.String())
	ix := d.ValueIndex()
	p := compileQuery(t, NewEnv(d), "//open_auction[initial > 7]", nil)
	vs := findValueScan(t, p)

	view := ix.LookupNumeric(vindex.OpGt, 7)
	frag := vs.materialize(d, ix, &p.opts)
	if len(frag) != auctions {
		t.Fatalf("fragment holds %d nodes, want %d", len(frag), auctions)
	}
	if len(view) < 100*len(frag) {
		t.Fatalf("index range holds %d nodes: too few to tell the two costs apart", len(view))
	}
	// TotalAlloc counts bytes, whoever allocates them: take the least of
	// a few runs so a runtime goroutine cannot inflate the reading.
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		frag = vs.materialize(d, ix, &p.opts)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	// Growing a slice by doubling allocates under 4× its final size.
	if limit := uint64(16*len(frag) + 256); least > limit {
		t.Errorf("materialising %d of %d range nodes allocated %d bytes, want <= %d",
			len(frag), len(view), least, limit)
	}
}

// tagged returns the length of the tag index's list for an element name.
func tagged(d *doc.Document, name string) int {
	id, ok := d.Names().Lookup(name)
	if !ok {
		return 0
	}
	return len(d.TagIndex().Tag(id))
}

// TestValueScanBitmapEqualsSort: a range fragment ordered through the
// pre bitmap (probing the tag list or scanning the words) or by sorting
// equals the reference — filter the range by the node test, sort, merge
// the matching overflow nodes — for every operator, with literals on,
// between and beyond the value groups' boundaries, on both partitions
// (the numeric one by name block and over every name), on the attribute
// axis, over one-group and whole-document views, with and without the
// tag index.
func TestValueScanBitmapEqualsSort(t *testing.T) {
	steps := []xpath.Step{
		{Axis: axis.Child, Test: xpath.NodeTest{Kind: xpath.TestName, Name: "a"}},
		// id names attributes only: its element tag list is empty.
		{Axis: axis.Child, Test: xpath.NodeTest{Kind: xpath.TestName, Name: "id"}},
		{Axis: axis.Child, Test: xpath.NodeTest{Kind: xpath.TestAny}},
		{Axis: axis.Child, Test: xpath.NodeTest{Kind: xpath.TestText}},
		{Axis: axis.Attribute, Test: xpath.NodeTest{Kind: xpath.TestName, Name: "id"}},
		{Axis: axis.Attribute, Test: xpath.NodeTest{Kind: xpath.TestAny}},
		{Axis: axis.Descendant, Test: xpath.NodeTest{Kind: xpath.TestName, Name: "b"}},
		{Axis: axis.DescendantOrSelf, Test: xpath.NodeTest{Kind: xpath.TestNode}},
		{Axis: axis.Self, Test: xpath.NodeTest{Kind: xpath.TestNode}},
	}
	ops := []xpath.CompareOp{xpath.OpEq, xpath.OpLt, xpath.OpLe, xpath.OpGt, xpath.OpGe}
	paths := map[string]int{}
	rng := rand.New(rand.NewSource(6))
	for round := 0; round < 4; round++ {
		d := shredString(t, valueDocXML(rng))
		ix := d.ValueIndex()
		// String literals on every group boundary, just past it and beyond
		// both ends; numeric ones likewise, in the number partition.
		lits := map[bool][]string{false: {"", "~"}, true: {"-1e9", "1e9"}}
		ix.ForEachString(func(val string, _ []int32) {
			lits[false] = append(lits[false], val, val+"0")
		})
		ix.ForEachNumeric(func(_ int32, f float64, _ []int32) {
			lits[true] = append(lits[true], fmt.Sprint(f), fmt.Sprint(f+0.25))
		})
		for numeric, ls := range lits {
			for _, lit := range ls {
				for _, op := range ops {
					for _, st := range steps {
						vs := &valueScan{pa: st.Axis, test: st.Test, op: op, lit: lit, numeric: numeric}
						var view []int32
						inOrder := true
						if numeric {
							// Every name's numbers, in document order.
							f, _ := vindex.ParseNumber(lit)
							view = ix.LookupNumeric(valueOpFor(op), f)
						} else {
							view, inOrder = ix.StringRange(valueOpFor(op), lit)
						}
						var want []int32
						for _, v := range view {
							if nodePassesTest(d, st.Axis, st.Test, v) {
								want = append(want, v)
							}
						}
						for _, v := range ix.Overflow() {
							if nodePassesTest(d, st.Axis, st.Test, v) && vs.matches(d.StringValue(v)) {
								want = append(want, v)
							}
						}
						slices.Sort(want)
						for _, noIndex := range []bool{false, true} {
							got := vs.materialize(d, ix, &Options{NoIndex: noIndex})
							if !equal32(got, want) {
								t.Fatalf("round %d: %v %s %q (numeric %v, NoIndex %v) = %v, want %v",
									round, st, op, lit, numeric, noIndex, got, want)
							}
							switch {
							case numeric && st.Test.Kind == xpath.TestName:
								paths["name block"]++
							case numeric:
								paths["every name"]++
							case inOrder:
								paths["one group"]++
							case st.Test.Kind == xpath.TestName && st.Axis != axis.Attribute && !noIndex:
								paths["probe"]++
								if tagged(d, st.Test.Name) == 0 {
									paths["probe, no such element"]++
								}
							default:
								paths["scan"]++
							}
						}
						if len(view) == d.Size()-len(ix.Overflow()) {
							paths["whole document"]++
						}
					}
				}
			}
		}
	}
	t.Logf("cases by path: %v", paths)
	for _, p := range []string{"one group", "probe", "probe, no such element", "scan", "whole document", "name block", "every name"} {
		if paths[p] == 0 {
			t.Errorf("no case took the %s path: %v", p, paths)
		}
	}
}

// sharedNameXML generates a document whose elements and attributes
// share names (a, b), holding numbers in several spellings, a few words
// and one value past the index key cap.
func sharedNameXML(rng *rand.Rand) string {
	vocab := []string{"1", "1.0", " 2 ", "2e0", "-3", "0", "4.5", "7", "10", "x",
		strings.Repeat("9", vindex.MaxKeyLen+1)}
	names := []string{"a", "b", "c"}
	var sb strings.Builder
	var emit func(depth int)
	emit = func(depth int) {
		name := names[rng.Intn(len(names))]
		fmt.Fprintf(&sb, "<%s", name)
		for _, attr := range names[:2] {
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&sb, " %s=%q", attr, vocab[rng.Intn(len(vocab))])
			}
		}
		sb.WriteString(">")
		if depth < 3 && rng.Intn(3) > 0 {
			for i := rng.Intn(3); i >= 0; i-- {
				emit(depth + 1)
			}
		} else {
			sb.WriteString(vocab[rng.Intn(len(vocab))])
		}
		fmt.Fprintf(&sb, "</%s>", name)
	}
	sb.WriteString("<r>")
	for i := 0; i < 8; i++ {
		emit(0)
	}
	sb.WriteString("</r>")
	return sb.String()
}

// TestNumericValueScanMatchesSpec: numeric value scans under a name test
// (one name's block), *, node() and text() (every name) and @name (an
// attribute name that elements carry too) answer like the per-node
// PredFilter and like the reference evaluator, with and without the tag
// index.
func TestNumericValueScanMatchesSpec(t *testing.T) {
	steps := []string{"a", "*", "node()", "text()", "@a", "@b", "@*", "descendant::b"}
	preds := []string{"= 2", "< 2", "<= 1", "> 4.5", ">= 0", "> 100", "< 0"}
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 4; round++ {
		d := shredString(t, sharedNameXML(rng))
		env := NewEnv(d)
		root := []int32{d.Root()}
		for _, s := range steps {
			for _, pr := range preds {
				q := fmt.Sprintf("//*[%s %s]", s, pr)
				findValueScan(t, compileQuery(t, env, q, nil))
				pq, err := xpath.ParseQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				want := spec.EvalQuery(d, pq, root)
				for _, opts := range []*Options{nil, {NoIndex: true}, {NoValueIndex: true}, {NoIndex: true, NoValueIndex: true}} {
					if got := run(t, env, q, opts); !equal32(got, want) {
						t.Fatalf("round %d: %s %+v = %v, spec %v", round, q, opts, got, want)
					}
				}
			}
		}
	}
}
