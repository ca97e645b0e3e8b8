package plan

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/spec"
	"staircase/internal/xmark"
	"staircase/internal/xpath"
)

// Differential tests of the node test fused into the staircase scan: the
// kernel under emitFor's mask must equal the naive region queries
// filtered node by node with the test spelled out from the data model
// (internal/spec).

// fusedTests is every node-test kind: a name present and one absent, a
// name only attributes carry, *, node(), text(), comment(), and
// processing-instruction() without and with a (present, absent) target.
var fusedTests = []xpath.NodeTest{
	{Kind: xpath.TestName, Name: "p"}, {Kind: xpath.TestName, Name: "nosuch"}, {Kind: xpath.TestName, Name: "k"},
	{Kind: xpath.TestAny}, {Kind: xpath.TestNode}, {Kind: xpath.TestText}, {Kind: xpath.TestComment},
	{Kind: xpath.TestPI}, {Kind: xpath.TestPI, Name: "go"}, {Kind: xpath.TestPI, Name: "nosuch"},
}

// fusedDocs builds the document shapes the kernels' sizing and emit
// paths differ on. Tags p/q, attribute k (also a tag in the attribute-
// heavy shape's dictionary), comments and PIs with targets go/q.
func fusedDocs(t testing.TB, rng *rand.Rand) map[string]*doc.Document {
	leafMix := func(b *doc.Builder) {
		switch rng.Intn(5) {
		case 0:
			b.Text("t")
		case 1:
			b.Comment("c")
		case 2:
			b.PI([]string{"go", "q"}[rng.Intn(2)], "x")
		}
	}
	build := func(virtual bool, body func(b *doc.Builder)) *doc.Document {
		var opts []doc.BuilderOption
		if virtual {
			opts = append(opts, doc.WithVirtualRoot())
		}
		b := doc.NewBuilder(opts...)
		body(b)
		d, err := b.Done()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	tree := func(b *doc.Builder, n, attrs int) {
		b.OpenElem("p")
		depth := 1
		for i := 0; i < n; i++ {
			switch r := rng.Intn(10); {
			case r < 4:
				b.OpenElem([]string{"p", "q", "k"}[rng.Intn(3)])
				for a := rng.Intn(attrs + 1); a > 0; a-- {
					b.Attr([]string{"k", "id"}[rng.Intn(2)], "v")
				}
				depth++
			case r < 7 && depth > 1:
				b.CloseElem()
				depth--
			default:
				leafMix(b)
			}
		}
		for ; depth > 0; depth-- {
			b.CloseElem()
		}
	}
	return map[string]*doc.Document{
		"single node": build(false, func(b *doc.Builder) { b.OpenElem("p"); b.CloseElem() }),
		"deep chain": build(false, func(b *doc.Builder) {
			for i := 0; i < 40; i++ {
				b.OpenElem([]string{"p", "q"}[i%2])
				b.Attr("k", "v")
				leafMix(b)
			}
			for i := 0; i < 40; i++ {
				b.CloseElem()
			}
		}),
		"wide fan-out": build(false, func(b *doc.Builder) {
			b.OpenElem("p")
			for i := 0; i < 120; i++ {
				b.OpenElem("q")
				leafMix(b)
				b.CloseElem()
				leafMix(b)
			}
			b.CloseElem()
		}),
		"attribute-heavy": build(false, func(b *doc.Builder) { tree(b, 150, 4) }),
		"collection": build(true, func(b *doc.Builder) {
			for i := 0; i < 3; i++ {
				tree(b, 60, 1)
			}
		}),
	}
}

// fusedContext draws a context in document order holding attributes,
// nested nodes and (one time in three) duplicates.
func fusedContext(rng *rand.Rand, d *doc.Document) []int32 {
	var ctx []int32
	p := 0.05 + 0.5*rng.Float64()
	for v := int32(0); int(v) < d.Size(); v++ {
		if rng.Float64() < p {
			ctx = append(ctx, v)
			if rng.Intn(3) == 0 {
				ctx = append(ctx, v)
			}
		}
	}
	if len(ctx) == 0 {
		ctx = []int32{int32(rng.Intn(d.Size()))}
	}
	return ctx
}

var fusedAxes = []struct {
	a, base axis.Axis
	orSelf  bool
}{
	{axis.Descendant, axis.Descendant, false}, {axis.Ancestor, axis.Ancestor, false},
	{axis.Following, axis.Following, false}, {axis.Preceding, axis.Preceding, false},
	{axis.DescendantOrSelf, axis.Descendant, true}, {axis.AncestorOrSelf, axis.Ancestor, true},
}

func TestFusedEmitEqualsNaiveJoinPlusTest(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 6; trial++ {
		for shape, d := range fusedDocs(t, rng) {
			ctx := fusedContext(rng, d)
			for _, ax := range fusedAxes {
				for _, test := range fusedTests {
					var want []int32
					for _, v := range spec.Join(d, ax.a, ctx) {
						if spec.Test(d, ax.a, test, v) {
							want = append(want, v)
						}
					}
					for _, v := range []core.Variant{core.NoSkip, core.Skip, core.SkipEstimate} {
						var st core.Stats
						co := &core.Options{Variant: v, Emit: emitFor(d, ax.a, test), OrSelf: ax.orSelf, Stats: &st}
						got, err := core.Join(d, ax.base, ctx, co)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("%s, %v::%v, %v, context %v:\n got %v\nwant %v", shape, ax.a, test, v, ctx, got, want)
						}
						if st.Result != int64(len(got)) {
							t.Fatalf("%s, %v::%v: Stats.Result %d, %d nodes emitted", shape, ax.a, test, st.Result, len(got))
						}
					}
				}
			}
		}
	}
}

// TestFusedPlansMatchSpec runs whole plans — attribute and nested
// contexts reach the join through a preceding step — on three goroutines
// per prepared plan (the race detector's view of a plan's shared
// fragment lists and the uncopied staircases), under every option set,
// against the reference evaluator. Each step also runs filtered by the
// existential child paths [p], [p/q] and [text()].
func TestFusedPlansMatchSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	contexts := []string{"/descendant-or-self::node()", "/descendant::*/attribute::*", "/descendant::q"}
	for shape, d := range fusedDocs(t, rng) {
		env := NewEnv(d)
		for _, ctx := range contexts {
			for _, ax := range fusedAxes {
				for _, test := range fusedTests {
					for _, pred := range []string{"", "[p]", "[p/q]", "[text()]"} {
						q := fmt.Sprintf("%s/%v::%v%s", ctx, ax.a, test, pred)
						want := spec.Eval(d, xpath.MustParse(q), nil)
						for _, opts := range []*Options{
							{Pushdown: PushNever}, {Pushdown: PushAlways}, nil,
						} {
							p := compileQuery(t, env, q, opts)
							var wg sync.WaitGroup
							for g := 0; g < 3; g++ {
								wg.Add(1)
								go func() {
									defer wg.Done()
									res, err := p.RunRoot()
									if err != nil {
										t.Error(err)
										return
									}
									if !slices.Equal(res.Nodes, want) {
										t.Errorf("%s, %s, %+v:\n got %v\nwant %v", shape, q, opts, res.Nodes, want)
									}
								}()
							}
							wg.Wait()
						}
					}
				}
			}
		}
	}
}

// TestPlanRunAllocationBound pins the batch path's memory cost without a
// clock: a result is allocated once, at its exact length, copied out of
// the scratch the encoding sizes before the scan (Equation (1)), and no
// filter, merge or growth pass copies it again. On a 4 MB XMark document
// the whole-document scan may allocate one document-sized column of pre
// ranks plus the execution's fixed bookkeeping. A pushed first step
// whose consumer is a join lends the index list and allocates nothing:
// text()/ancestor::node() — the ancestor join from some 40 000 text
// nodes — gets its result plus a page's rounding and its bookkeeping,
// though its Equation (1) bound is two thirds of a column, and
// open_auction/bidder its result plus 2 kB of bookkeeping (a copied
// first step would add 2.4 kB).
func TestPlanRunAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	d, err := xmark.Generate(xmark.Config{SizeMB: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(d)
	column := uint64(4 * d.Size())
	for _, c := range []struct {
		query string
		// limit is the bound in bytes, given the bytes of the result.
		limit func(result uint64) uint64
	}{
		{"/descendant::node()", func(uint64) uint64 { return column + 8<<10 }},
		{"/descendant::text()/ancestor::node()", func(r uint64) uint64 { return r + 10<<10 }},
		{"/descendant::open_auction/descendant::bidder", func(r uint64) uint64 { return r + 2<<10 }},
	} {
		p := compileQuery(t, env, c.query, nil)
		// TotalAlloc counts bytes, whoever allocates them: take the least
		// of a few runs so a runtime goroutine cannot inflate the reading.
		least, result := uint64(math.MaxUint64), 0
		var before, after runtime.MemStats
		for i := 0; i < 5; i++ {
			runtime.ReadMemStats(&before)
			res, err := p.RunRoot()
			runtime.ReadMemStats(&after)
			if err != nil || len(res.Nodes) == 0 {
				t.Fatalf("%s: %d nodes, error %v", c.query, len(res.Nodes), err)
			}
			least, result = min(least, after.TotalAlloc-before.TotalAlloc), len(res.Nodes)
		}
		limit := c.limit(uint64(4 * result))
		if least > limit {
			t.Errorf("%s on %d nodes allocated %d bytes for %d result nodes, want <= %d", c.query, d.Size(), least, result, limit)
		}
		t.Logf("%s: %d nodes, %d result nodes, %d bytes allocated (limit %d)", c.query, d.Size(), result, least, limit)
	}
}

// TestChildSweepEqualsParentColumn: child and attribute steps, swept by
// Equation (1) jumps with the node test fused, select exactly what the
// parent column says — v such that parent[v] is a context node, v's kind
// puts it on the axis and v passes the test — over every document shape,
// for nested, disjoint, empty and single contexts and every node-test
// kind.
func TestChildSweepEqualsParentColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 4; trial++ {
		for shape, d := range fusedDocs(t, rng) {
			var disjoint []int32
			for v := int32(0); int(v) < d.Size(); v++ {
				if rng.Intn(4) == 0 {
					disjoint = append(disjoint, v)
					v += d.SubtreeSize(v)
				}
			}
			contexts := map[string][]int32{
				"nested":   slices.Compact(fusedContext(rng, d)),
				"disjoint": disjoint,
				"empty":    nil,
				"single":   {int32(rng.Intn(d.Size()))},
			}
			ec := &execCtx{env: NewEnv(d), opts: &Options{}}
			for name, ctx := range contexts {
				in := make(map[int32]bool, len(ctx))
				for _, c := range ctx {
					in[c] = true
				}
				for _, a := range []axis.Axis{axis.Child, axis.Attribute} {
					for _, test := range fusedTests {
						var want []int32
						for v := int32(0); int(v) < d.Size(); v++ {
							if p := d.Parent(v); p != doc.NoParent && in[p] && spec.Test(d, a, test, v) {
								want = append(want, v)
							}
						}
						got, err := ec.axisTest(a, test, ctx, nil, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("%s, %s context %v, %v::%v:\n got %v\nwant %v", shape, name, ctx, a, test, got, want)
						}
					}
				}
			}
		}
	}
}
