package plan

// Tests for the value-index fragments (value.go): a valueScan fragment
// must hold exactly the nodes a per-node evaluation accepts, whatever
// node test and axis the predicate names, and every execution face
// must agree on the result. The cost test pins that a fragment is
// filtered before it is copied and sorted.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"staircase/internal/vindex"
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

			frag, ok := vs.resolveWith(d, &p.opts)
			if !ok {
				t.Fatalf("%s: fragment not served by the value index", q)
			}
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

// TestValueScanMaterializeCost: materialising //open_auction[initial >
// C] allocates in proportion to the matching initial nodes, not to the
// numeric nodes above C the index range holds (the filter runs while
// the range is read; only survivors are copied and sorted).
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

	view, _ := ix.NumericRange(vindex.OpGt, 7)
	frag := vs.materialize(d, ix)
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
		frag = vs.materialize(d, ix)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	// Growing a slice by doubling allocates under 4× its final size.
	if limit := uint64(16*len(frag) + 256); least > limit {
		t.Errorf("materialising %d of %d range nodes allocated %d bytes, want <= %d",
			len(frag), len(view), least, limit)
	}
}
