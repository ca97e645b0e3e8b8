package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"staircase/internal/axis"
	"staircase/internal/core"
	"staircase/internal/xmark"
	"staircase/internal/xpath"
)

// TestQuickIndexPushdownEqualsScanThenFilter is the index acceptance
// bar: for random documents, index-backed JoinNodeList pushdown is
// byte-identical to scan-then-filter evaluation for every partitioning
// axis × pushable node test — with the shared index and with the
// Options.NoIndex scan fallback.
func TestQuickIndexPushdownEqualsScanThenFilter(t *testing.T) {
	axes := []axis.Axis{axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding}
	tests := []xpath.NodeTest{
		{Kind: xpath.TestName, Name: "p"},
		{Kind: xpath.TestName, Name: "q"},
		{Kind: xpath.TestName, Name: "nosuchtag"},
		{Kind: xpath.TestText},
		{Kind: xpath.TestComment},
	}
	f := func(seed int64, ctxBits uint16, axisPick, testPick uint8) bool {
		rng := rand.New(rand.NewSource(seed ^ int64(ctxBits)<<17))
		d := randomDoc(rng, 60+int(uint16(seed)%150))
		var context []int32
		for v := 0; v < d.Size(); v++ {
			if rng.Intn(2+int(ctxBits%10)) == 0 {
				context = append(context, int32(v))
			}
		}
		if len(context) == 0 {
			context = []int32{int32(int(ctxBits) % d.Size())}
		}
		a := axes[axisPick%4]
		test := tests[testPick%uint8(len(tests))]
		e := New(d)
		path := xpath.Path{Steps: []xpath.Step{{Axis: a, Test: test}}}

		want, err := e.Eval(path, context, &Options{Pushdown: PushNever})
		if err != nil {
			return false
		}
		for _, opts := range []*Options{
			{Pushdown: PushAlways},
			{Pushdown: PushAlways, NoIndex: true},
			{Pushdown: PushAuto},
			{Pushdown: PushAuto, NoIndex: true},
		} {
			got, err := e.Eval(path, context, opts)
			if err != nil || !eq32(got.Nodes, want.Nodes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPushdownOneEngine is the -race regression test for the
// shared index: one engine queried from many goroutines with name-test
// pushdown forced, so every goroutine races for the first index use.
// With the old per-engine lazy tag-list map this was the contended
// path; with the shared immutable index there is nothing left to race
// on (the build itself is serialised inside doc.TagIndex).
func TestConcurrentPushdownOneEngine(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.2, Seed: 33, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"/descendant::profile/descendant::education",
		"/descendant::increase/ancestor::bidder",
		"//person//education",
		"//bidder/following::item",
		"//bidder/preceding::increase",
		"//person/name/text()",
	}
	// Fresh document + engine per mode so the index build itself is
	// raced, not just the reads.
	for _, pd := range []Pushdown{PushAlways, PushAuto} {
		d2, err := xmark.Generate(xmark.Config{SizeMB: 0.2, Seed: 33, KeepValues: true})
		if err != nil {
			t.Fatal(err)
		}
		e := New(d2)
		ref := New(d)
		want := map[string][]int32{}
		for _, q := range queries {
			r, err := ref.EvalString(q, &Options{Pushdown: PushNever})
			if err != nil {
				t.Fatal(err)
			}
			want[q] = r.Nodes
		}
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					q := queries[(w+i)%len(queries)]
					r, err := e.EvalString(q, &Options{Pushdown: pd})
					if err != nil {
						errs <- fmt.Errorf("%s: %w", q, err)
						return
					}
					if !eq32(r.Nodes, want[q]) {
						errs <- fmt.Errorf("%s: concurrent pushdown diverged", q)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// TestKindTestPushdown: the index's kind lists let text()/comment()
// steps run as fragment joins; check the step report records the
// pushdown and that results match the filter path.
func TestKindTestPushdown(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.2, Seed: 12, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	q := "/descendant::person/descendant::text()"
	want, err := e.EvalString(q, &Options{Pushdown: PushNever})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EvalString(q, &Options{Pushdown: PushAlways})
	if err != nil {
		t.Fatal(err)
	}
	if !eq32(got.Nodes, want.Nodes) {
		t.Fatalf("kind-test pushdown changed the result: %d vs %d nodes", len(got.Nodes), len(want.Nodes))
	}
	last := got.Steps[len(got.Steps)-1]
	if !last.Pushed || !last.Indexed {
		t.Fatalf("text() step not index-pushed: %+v", last)
	}
}

// TestExplainShowsIndexStrategy: EXPLAIN must name the fragment source
// — shared index with its pre span, or the scan fallback.
func TestExplainShowsIndexStrategy(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.2, Seed: 12, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	out, err := explain(e, "/descendant::profile/descendant::education", &Options{Pushdown: PushAlways})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shared tag/kind index") || !strings.Contains(out, "pre span [") {
		t.Fatalf("explain missing index-hit strategy:\n%s", out)
	}
	out, err = explain(e, "/descendant::profile/descendant::education", &Options{Pushdown: PushAlways, NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "name-column scan, index disabled") {
		t.Fatalf("explain missing scan fallback note:\n%s", out)
	}
}

// TestIndexedFragmentMatchesCoreJoin pins the engine's fragment source
// to core.JoinNodeList over the document index — the exact §4.4
// rewrite — on a non-random document for easier debugging.
func TestIndexedFragmentMatchesCoreJoin(t *testing.T) {
	d := shred(t, `<r><p><q/><q><p/></q></p><q/><p><s/><q/></p></r>`)
	id, ok := d.Names().Lookup("q")
	if !ok {
		t.Fatal("no q")
	}
	ctx := []int32{0}
	want, err := core.JoinNodeList(d, axis.Descendant, d.TagIndex().Tag(id), ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	res, err := e.EvalString("/descendant::q", &Options{Pushdown: PushAlways})
	if err != nil {
		t.Fatal(err)
	}
	if !eq32(res.Nodes, want) {
		t.Fatalf("engine fragment join diverges from core: %v vs %v", res.Nodes, want)
	}
	if !res.Steps[0].Pushed || !res.Steps[0].Indexed {
		t.Fatalf("step not index-pushed: %+v", res.Steps[0])
	}
}
