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
