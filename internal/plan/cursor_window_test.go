package plan

import (
	"math/rand"
	"slices"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/spec"
	"staircase/internal/xmark"
	"staircase/internal/xpath"
)

// Tests of what the cursor kernels leave untouched: the context a
// following step never reads, and the document a first window does not
// reach. They assert work (source calls, Stats counters), not time.

// countingSource hands ctx out in batches of bs nodes and records how
// many nodes it handed over and how often it was called.
type countingSource struct {
	ctx           []int32
	bs            int
	handed, calls int
}

func (s *countingSource) next() ([]int32, error) {
	s.calls++
	if len(s.ctx) == 0 {
		return nil, nil
	}
	b := s.ctx[:min(s.bs, len(s.ctx))]
	s.ctx = s.ctx[len(b):]
	s.handed += len(b)
	return b, nil
}

// followingContexts builds the contexts the early exit has to get
// right: a random one (attributes, nesting, duplicates), a first node
// that is an ancestor of later context nodes with the minimum-post node
// deep inside it, the same with duplicates, a first node that is a leaf,
// a single node, and the empty context.
func followingContexts(rng *rand.Rand, d *doc.Document) [][]int32 {
	n := int32(d.Size())
	// The node with the largest subtree that still leaves followers (the
	// root where there is none).
	anc, size := int32(0), int32(-1)
	for v := int32(1); v < n; v++ {
		if sz := d.SubtreeSize(v); v+sz < n-1 && sz > size {
			anc, size = v, sz
		}
	}
	nested := []int32{anc}
	for v := anc + 1; v < n; v++ {
		if v <= anc+d.SubtreeSize(anc) && rng.Intn(2) == 0 || v > anc+d.SubtreeSize(anc) && rng.Intn(4) == 0 {
			nested = append(nested, v)
		}
	}
	var dups []int32
	for _, v := range nested {
		dups = append(dups, v, v)
	}
	leaf := int32(0)
	for v := n - 1; v > 0; v-- {
		if d.SubtreeSize(v) == 0 && d.KindOf(v) != doc.Attr {
			leaf = v
		}
	}
	leafFirst := []int32{leaf}
	for v := leaf + 1; v < n; v += 1 + int32(rng.Intn(3)) {
		leafFirst = append(leafFirst, v)
	}
	return [][]int32{fusedContext(rng, d), nested, dups, leafFirst, {int32(rng.Intn(int(n)))}, nil}
}

func TestFollowingCursorStopsPulling(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	node := xpath.NodeTest{Kind: xpath.TestNode}
	for trial := 0; trial < 4; trial++ {
		for shape, d := range fusedDocs(t, rng) {
			// A random part of node()'s fragment: the node-list kernels take
			// the list as their test.
			var list []int32
			for v := int32(0); int(v) < d.Size(); v++ {
				if rng.Intn(3) > 0 && d.KindOf(v) != doc.Attr {
					list = append(list, v)
				}
			}
			for _, ctx := range followingContexts(rng, d) {
				var want, wantList []int32
				for _, v := range spec.Join(d, axis.Following, ctx) {
					if spec.Test(d, axis.Following, node, v) {
						want = append(want, v)
						if _, in := slices.BinarySearch(list, v); in {
							wantList = append(wantList, v)
						}
					}
				}
				// Context nodes inside the first one's subtree (itself and
				// duplicates included): all the kernel may have to read,
				// plus the one node that tells it the subtree is over.
				inside := 0
				for _, v := range ctx {
					if v <= ctx[0]+d.SubtreeSize(ctx[0]) {
						inside++
					}
				}
				for _, onList := range []bool{false, true} {
					want := want
					if onList {
						want = wantList
					}
					var bst core.Stats
					co := &core.Options{Variant: core.SkipEstimate, Stats: &bst}
					var batch []int32
					if onList {
						batch, _ = core.JoinNodeList(d, axis.Following, list, ctx, co)
					} else {
						co.Emit = emitFor(d, axis.Following, node)
						batch, _ = core.Join(d, axis.Following, ctx, co)
					}
					if !slices.Equal(batch, want) {
						t.Fatalf("%s, list=%v, context %v: batch join\n got %v\nwant %v", shape, onList, ctx, batch, want)
					}
					for _, bs := range []int{1, 3, len(ctx) + 1} {
						src := &countingSource{ctx: ctx, bs: bs}
						var st core.Stats
						co := &core.Options{Variant: core.SkipEstimate, Stats: &st}
						var cur core.JoinCursor
						if onList {
							cur, _ = core.NewJoinNodeListCursor(d, axis.Following, list, src.next, co)
						} else {
							co.Emit = emitFor(d, axis.Following, node)
							cur, _ = core.NewJoinCursor(d, axis.Following, src.next, co)
						}
						var got []int32
						callsAfterFirst := -1
						for {
							b, err := cur.Next(make([]int32, 0, 5), 0)
							if err != nil {
								t.Fatal(err)
							}
							if callsAfterFirst < 0 {
								callsAfterFirst = src.calls
							}
							if b == nil {
								break
							}
							got = append(got, b...)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("%s, list=%v, context %v in batches of %d: cursor\n got %v\nwant %v", shape, onList, ctx, bs, got, want)
						}
						if src.calls != callsAfterFirst {
							t.Errorf("%s, list=%v, context %v: source called %d times, %d of them after the first Next returned",
								shape, onList, ctx, src.calls, src.calls-callsAfterFirst)
						}
						// A batch is handed over whole, so up to bs-1 nodes
						// beyond the deciding one count as handed.
						if limit := inside + bs; !(onList && len(list) == 0) && src.handed > limit {
							t.Errorf("%s, list=%v, context %v in batches of %d: source handed over %d nodes, want <= %d",
								shape, onList, ctx, bs, src.handed, limit)
						}
						if st.ContextSize > int64(inside)+1 {
							t.Errorf("%s, list=%v, context %v: kernel read %d context nodes, want <= %d", shape, onList, ctx, st.ContextSize, inside+1)
						}
						if st.PrunedSize != bst.PrunedSize {
							t.Errorf("%s, list=%v, context %v: cursor PrunedSize %d, batch %d", shape, onList, ctx, st.PrunedSize, bst.PrunedSize)
						}
					}
				}
			}
		}
	}
}

// TestFollowingStepLeavesUpstreamSuspended: ten nodes of
// //item//text()/following::keyword, and all of them through Plan.Run,
// need the first text node of the first item and nothing else of the
// two upstream steps, however large the document is.
func TestFollowingStepLeavesUpstreamSuspended(t *testing.T) {
	var upstream [2]int64
	for i, mb := range []float64{4, 16} {
		d, err := xmark.Generate(xmark.Config{SizeMB: mb, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		p := compileQuery(t, NewEnv(d), "//item//text()/following::keyword", nil)
		full, err := p.RunRoot()
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.RunLimitRoot(nil, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Nodes, full.Nodes[:10]) || !res.Truncated {
			t.Fatalf("%v MB: limit 10 returned %v (truncated=%v), want %v", mb, res.Nodes, res.Truncated, full.Nodes[:10])
		}
		if len(res.Steps) != 3 || res.Steps[2].Axis != axis.Following {
			t.Fatalf("%v MB: steps %+v, want the following step third", mb, res.Steps)
		}
		for _, r := range []*Result{res, full} {
			if cs := r.Steps[2].Core.ContextSize; cs > 2 {
				t.Errorf("%v MB: following step read %d context nodes, want <= 2", mb, cs)
			}
		}
		upstream[i] = res.Steps[0].Core.Scanned + res.Steps[1].Core.Scanned
		fullUp := full.Steps[0].Core.Scanned + full.Steps[1].Core.Scanned
		if upstream[i] > 2*execBatchMin || fullUp > 2*execBatchMin {
			t.Errorf("%v MB: upstream steps scanned %d nodes under limit 10, %d in full (want <= %d)", mb, upstream[i], fullUp, 2*execBatchMin)
		}
		t.Logf("%v MB: upstream steps scanned %d nodes under limit 10, %d in full", mb, upstream[i], fullUp)
	}
	if upstream[0] != upstream[1] {
		t.Errorf("upstream steps scanned %d nodes at 4 MB and %d at 16 MB, want the same", upstream[0], upstream[1])
	}
}

// TestFirstWindowBoundsFirstBatch: where the tested name occurs once,
// near the end of the document, the first Next of a descendant document
// cursor comes back after one window of work with an empty non-nil batch,
// and the first Next of an ancestor document cursor, which climbs from
// the context node, returns the node after reading at most its level's
// worth of ancestors — and a LIMIT 1 plan still finds the node.
func TestFirstWindowBoundsFirstBatch(t *testing.T) {
	b := doc.NewBuilder()
	b.OpenElem("r")
	for i := 0; i < 3000; i++ {
		b.OpenElem("q")
		b.Text("t")
		b.CloseElem()
	}
	b.OpenElem("p")
	b.OpenElem("x")
	b.CloseElem()
	b.CloseElem()
	b.CloseElem()
	d, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	x := int32(d.Size()) - 1
	p := x - 1
	test := xpath.NodeTest{Kind: xpath.TestName, Name: "p"}
	for _, w := range []int{execBatchMin, 64, execBatchSize} {
		var st core.Stats
		co := &core.Options{Variant: core.SkipEstimate, Emit: emitFor(d, axis.Descendant, test), Stats: &st}
		cur, err := core.NewJoinCursor(d, axis.Descendant, core.SliceSource([]int32{d.Root()}), co)
		if err != nil {
			t.Fatal(err)
		}
		first, err := cur.Next(make([]int32, 0, w), 0)
		if err != nil || first == nil || len(first) != 0 {
			t.Fatalf("descendant, window %d: first Next returned %v, %v; want an empty non-nil batch", w, first, err)
		}
		if st.Scanned > int64(w) || st.Scanned == 0 {
			t.Errorf("descendant, window %d: first Next scanned %d nodes", w, st.Scanned)
		}
		var got []int32
		for b := first; b != nil; {
			if b, err = cur.Next(make([]int32, 0, w), 0); err != nil {
				t.Fatal(err)
			}
			got = append(got, b...)
		}
		if !slices.Equal(got, []int32{p}) {
			t.Errorf("descendant, window %d: drained %v, want [%d]", w, got, p)
		}

		st = core.Stats{}
		co = &core.Options{Variant: core.SkipEstimate, Emit: emitFor(d, axis.Ancestor, test), Stats: &st}
		if cur, err = core.NewJoinCursor(d, axis.Ancestor, core.SliceSource([]int32{x}), co); err != nil {
			t.Fatal(err)
		}
		if first, err = cur.Next(make([]int32, 0, w), 0); err != nil || !slices.Equal(first, []int32{p}) {
			t.Fatalf("ancestor, window %d: first Next returned %v, %v; want [%d]", w, first, err, p)
		}
		if st.Scanned > int64(d.Level(x)) {
			t.Errorf("ancestor, window %d: first Next scanned %d nodes, level(x) = %d", w, st.Scanned, d.Level(x))
		}
		if rest, err := cur.Next(make([]int32, 0, w), 0); rest != nil || err != nil {
			t.Errorf("ancestor, window %d: second Next returned %v, %v; want nil", w, rest, err)
		}
	}
	env := NewEnv(d)
	for _, q := range []string{"/descendant::p", "/descendant::x/ancestor::p"} {
		for _, opts := range []*Options{nil, {Pushdown: PushNever}} {
			res, err := compileQuery(t, env, q, opts).RunLimitRoot(nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Nodes, []int32{p}) {
				t.Errorf("%s, %+v, limit 1: %v, want [%d]", q, opts, res.Nodes, p)
			}
		}
	}
}

// TestChildStepLimitReadsOneWindow: a limit 1 over a child step reads at
// most one window of context, whether its input lends the index span
// (the default) or streams it from a column scan (NoIndex).
func TestChildStepLimitReadsOneWindow(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(d)
	const q = "/descendant::open_auction/child::bidder"
	for _, opts := range []*Options{nil, {NoIndex: true}} {
		p := compileQuery(t, env, q, opts)
		full, err := p.RunRoot()
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.RunLimitRoot(nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Nodes, full.Nodes[:1]) {
			t.Fatalf("%+v: limit 1 returned %v, want %v", opts, res.Nodes, full.Nodes[:1])
		}
		if in := res.Steps[1].InputSize; in == 0 || in > execBatchMin {
			t.Errorf("%+v: the child step read %d context nodes under limit 1, want 1..%d (of %d)", opts, in, execBatchMin, full.Steps[1].InputSize)
		}
		t.Logf("%+v: the child step read %d of %d context nodes under limit 1", opts, res.Steps[1].InputSize, full.Steps[1].InputSize)
	}
}
