package plan

// TestCursorOpenAllocations pins what opening and pulling a cursor
// tree costs: a warm RunLimit(10) allocates its operators' cursors, the
// batch buffers its kernels scan into and its result, nothing per node.

import (
	"context"
	"testing"

	"staircase/internal/xmark"
)

func TestCursorOpenAllocations(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(d)
	root := []int32{d.Root()}
	for _, c := range []struct {
		query string
		bound float64
	}{
		{"/descendant::open_auction/descendant::bidder", 14},
		{"/descendant::keyword/ancestor::listitem", 16},
		{"/descendant::education/preceding::interest", 16},
	} {
		p := compileQuery(t, env, c.query, nil)
		if res, err := p.RunLimit(context.Background(), root, 10); err != nil || len(res.Nodes) != 10 {
			t.Fatalf("%s: %d nodes (err %v), want 10", c.query, len(res.Nodes), err)
		}
		n := testing.AllocsPerRun(20, func() {
			if _, err := p.RunLimit(context.Background(), root, 10); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations per warm RunLimit(10)", c.query, n)
		if n > c.bound {
			t.Errorf("%s: %v allocations per warm RunLimit(10), want <= %v", c.query, n, c.bound)
		}
	}
}

// TestFollowingLentSpanAllocations: a whole following join whose input
// is a pushed document-node step opens that input whole and reads the
// index span it lends (two binary searches), so a warm RunRoot
// allocates no more than a descendant join over the same kind of input.
// Unpushed, the document-node input still streams: the following step
// reads only its first context subtree and the scan above it stops
// there.
func TestFollowingLentSpanAllocations(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(d)
	allocs := func(query string) float64 {
		p := compileQuery(t, env, query, nil)
		if res, err := p.RunRoot(); err != nil || len(res.Nodes) == 0 {
			t.Fatalf("%s: %d nodes (err %v)", query, len(res.Nodes), err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := p.RunRoot(); err != nil {
				t.Fatal(err)
			}
		})
	}
	fol := allocs("/descendant::seller/following::bidder")
	desc := allocs("/descendant::open_auction/descendant::bidder")
	t.Logf("warm RunRoot: following %v, descendant %v allocations", fol, desc)
	if fol > desc {
		t.Errorf("following over a pushed document step: %v allocations per warm RunRoot, want <= %v (descendant)", fol, desc)
	}
	for _, opts := range []*Options{{Pushdown: PushNever}, {NoIndex: true}} {
		res, err := compileQuery(t, env, "/descendant::seller/following::bidder", opts).RunRoot()
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Steps[0].Core.Scanned; n >= int64(d.Size()) {
			t.Errorf("%+v: document step scanned %d of %d nodes, want the streamed prefix only", *opts, n, d.Size())
		}
	}
}
