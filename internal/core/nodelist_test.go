package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/doc"
	"staircase/internal/spec"
)

// randomList draws a sorted subset of the document's non-attribute
// nodes: the shape of a tag or kind fragment, which the node-list kernels
// take as their test.
func randomList(rng *rand.Rand, d *doc.Document, p float64) []int32 {
	var out []int32
	for v := int32(0); int(v) < d.Size(); v++ {
		if rng.Float64() < p && d.KindOf(v) != doc.Attr {
			out = append(out, v)
		}
	}
	return out
}

func TestNodeListJoinMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(888))
	for trial := 0; trial < 30; trial++ {
		d := randomDoc(rng, 250)
		list := randomList(rng, d, 0.3)
		context := randomContext(rng, d, 1+rng.Intn(20))
		for _, a := range []axis.Axis{axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding} {
			want := slices.DeleteFunc(spec.Join(d, a, context), func(v int32) bool {
				_, in := slices.BinarySearch(list, v)
				return !in
			})
			for _, o := range []*Options{
				{Variant: NoSkip},
				{Variant: Skip},
				{Variant: SkipEstimate},
				nil,
			} {
				got, err := JoinNodeList(d, a, list, context, o)
				if err != nil {
					t.Fatal(err)
				}
				if !eq32(got, want) {
					t.Fatalf("trial %d axis %v opts %+v:\n got %v\nwant %v\nlist %v\ncontext %v",
						trial, a, o, got, want, list, context)
				}
			}
		}
	}
}

func TestNodeListJoinTagListEquivalence(t *testing.T) {
	// The pushdown equivalence of §4.4: joining against the tag-
	// filtered list equals joining against the document followed by
	// the name test.
	rng := rand.New(rand.NewSource(999))
	for trial := 0; trial < 20; trial++ {
		d := randomDoc(rng, 300)
		// Tag list for "q".
		var list []int32
		for v := int32(0); int(v) < d.Size(); v++ {
			if d.KindOf(v) == doc.Elem && d.Name(v) == "q" {
				list = append(list, v)
			}
		}
		context := randomContext(rng, d, 1+rng.Intn(15))
		for _, a := range []axis.Axis{axis.Descendant, axis.Ancestor} {
			pushed, err := JoinNodeList(d, a, list, context, nil)
			if err != nil {
				t.Fatal(err)
			}
			full, err := Join(d, a, context, nil)
			if err != nil {
				t.Fatal(err)
			}
			var filtered []int32
			for _, v := range full {
				if d.KindOf(v) == doc.Elem && d.Name(v) == "q" {
					filtered = append(filtered, v)
				}
			}
			if !eq32(pushed, filtered) {
				t.Fatalf("trial %d axis %v: pushdown %v != filter %v", trial, a, pushed, filtered)
			}
		}
	}
}

func TestNodeListJoinEmptyInputs(t *testing.T) {
	d := figure1(t)
	for _, a := range cursorAxes {
		for _, in := range []struct{ list, context []int32 }{
			{nil, []int32{1, 2, 3, 5}}, // Figure 1's context b, c, d, f
			{[]int32{1, 2}, nil},
		} {
			var joined, drained Stats
			if got, _ := JoinNodeList(d, a, in.list, in.context, &Options{Stats: &joined}); len(got) != 0 {
				t.Fatalf("axis %v list %v context %v: gave %v", a, in.list, in.context, got)
			}
			c, err := NewJoinNodeListCursor(d, a, in.list, SliceSource(in.context), &Options{Stats: &drained})
			if err != nil {
				t.Fatal(err)
			}
			if got := drainCursor(t, c, 4); len(got) != 0 {
				t.Fatalf("axis %v list %v context %v: cursor gave %v", a, in.list, in.context, got)
			}
			if joined != drained {
				t.Fatalf("axis %v list %v context %v: JoinNodeList counts %+v, the drained cursor %+v",
					a, in.list, in.context, joined, drained)
			}
		}
	}
	if _, err := JoinNodeList(d, axis.Child, []int32{1}, []int32{0}, nil); err == nil {
		t.Fatal("expected error for non-partitioning axis")
	}
}

// TestNodeListSkipTouchesFewerEntries verifies skipping still pays off
// on lists: scanned list entries stay near the result size instead of
// the list size.
func TestNodeListSkipTouchesFewerEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := randomDoc(rng, 5000)
	list := randomList(rng, d, 0.5)
	context := randomContext(rng, d, 3)
	var noskip, skip Stats
	joinList(d, axis.Descendant, list, context, &Options{Variant: NoSkip, Stats: &noskip})
	joinList(d, axis.Descendant, list, context, &Options{Variant: Skip, Stats: &skip})
	if skip.Scanned > noskip.Scanned {
		t.Fatalf("skip scanned %d > noskip scanned %d", skip.Scanned, noskip.Scanned)
	}
	if skip.Scanned > skip.Result+int64(len(context)) {
		t.Fatalf("skip scanned %d > result %d + context %d", skip.Scanned, skip.Result, len(context))
	}
}

// TestSubtreeNodeListMatchesKernel: the two-search span of a subtree
// over a list equals the descendant kernel on the one-node context with
// the node merged back in, counts the kernel's context and result but
// only the entries its two binary searches compared as scanned, and is a
// subslice of the list that an append cannot write past.
func TestSubtreeNodeListMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		d := randomDoc(rng, 50+rng.Intn(300))
		list := randomList(rng, d, 0.05+0.9*rng.Float64())
		for _, c := range []int32{d.Root(), int32(rng.Intn(d.Size())), int32(rng.Intn(d.Size()))} {
			for _, v := range []Variant{NoSkip, Skip, SkipEstimate} {
				var want, got Stats
				nodes := joinList(d, axis.Descendant, list, []int32{c}, &Options{Variant: v, Stats: &want})
				if _, in := slices.BinarySearch(list, c); in {
					nodes = MergeOrSelf(nodes, []int32{c})
				}
				span := SubtreeNodeList(d, list, c, &Options{Variant: v, Stats: &got})
				if !eq32(span, nodes) {
					t.Fatalf("trial %d, node %d, %v: span %v, kernel %v", trial, c, v, span, nodes)
				}
				searches := min(2*int64(bits.Len(uint(len(list)))+1), int64(len(list)))
				if got.ContextSize != want.ContextSize || got.PrunedSize != want.PrunedSize || got.Result != want.Result ||
					got.Copied != 0 || got.Scanned != got.Compared || got.Compared == 0 || got.Compared > searches ||
					got.Skipped != int64(len(list))-got.Compared {
					t.Fatalf("trial %d, node %d, %v: span counters %+v, kernel %+v, at most %d compared by the searches", trial, c, v, got, want, searches)
				}
				if len(span) > 0 {
					if i := searchList(list, span[0]); &list[i] != &span[0] {
						t.Fatalf("trial %d, node %d: the span is a copy, not a subslice of the list", trial, c)
					}
					if cap(span) != len(span) {
						t.Fatalf("trial %d, node %d: the span's capacity %d reaches past it (%d)", trial, c, cap(span), len(span))
					}
				}
			}
		}
	}
	var st Stats
	if got := SubtreeNodeList(figure1(t), nil, 0, &Options{Stats: &st}); got != nil || st != (Stats{ContextSize: 1}) {
		t.Fatalf("empty list: %v with %+v", got, st)
	}
}

func TestNodeListAncestorSkipJumps(t *testing.T) {
	// Chain document whose bottom holds 50 sibling subtrees of 20
	// nodes each, followed by a final leaf. The ancestors of that leaf
	// are the chain; the sibling subtrees precede it and must be
	// *jumped over* (one comparison per subtree root, descendants
	// untouched) by the ancestor skipping of §3.3.
	b := doc.NewBuilder()
	const depth = 200
	const bushes, bushSize = 50, 20
	for i := 0; i < depth; i++ {
		b.OpenElem("n")
	}
	for i := 0; i < bushes; i++ {
		b.OpenElem("bush")
		for j := 0; j < bushSize; j++ {
			b.OpenElem("twig")
			b.CloseElem()
		}
		b.CloseElem()
	}
	b.OpenElem("final")
	b.CloseElem()
	for i := 0; i < depth; i++ {
		b.CloseElem()
	}
	d, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int32, d.Size())
	for i := range all {
		all[i] = int32(i)
	}
	last := int32(d.Size() - 1) // the final leaf
	var st Stats
	got := joinList(d, axis.Ancestor, all, []int32{last}, &Options{Variant: Skip, Stats: &st})
	if len(got) != depth {
		t.Fatalf("ancestors = %d, want %d", len(got), depth)
	}
	// Compared: depth chain nodes + one comparison per bush root.
	if st.Compared > int64(depth+bushes)+2 {
		t.Fatalf("compared %d entries, want about %d (skipping broken)", st.Compared, depth+bushes)
	}
	if st.Skipped < int64(bushes*(bushSize-1)) {
		t.Fatalf("skipped only %d entries", st.Skipped)
	}
	// NoSkip must compare every preceding entry.
	var ns Stats
	joinList(d, axis.Ancestor, all, []int32{last}, &Options{Variant: NoSkip, Stats: &ns})
	if ns.Compared <= st.Compared {
		t.Fatalf("noskip compared %d <= skip compared %d", ns.Compared, st.Compared)
	}
}

func TestSearchList(t *testing.T) {
	list := []int32{2, 5, 9}
	cases := []struct {
		pre  int32
		want int
	}{{0, 0}, {2, 0}, {3, 1}, {5, 1}, {6, 2}, {9, 2}, {10, 3}}
	for _, c := range cases {
		if got := searchList(list, c.pre); got != c.want {
			t.Errorf("searchList(%d) = %d, want %d", c.pre, got, c.want)
		}
	}
}

func TestNodeListResultsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 20; trial++ {
		d := randomDoc(rng, 400)
		list := randomList(rng, d, 0.4)
		context := randomContext(rng, d, 1+rng.Intn(10))
		for _, a := range []axis.Axis{axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding} {
			got, err := JoinNodeList(d, a, list, context, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Fatalf("axis %v result unsorted: %v", a, got)
			}
		}
	}
}

// TestListAncestorPrunesInScan: the list ancestor kernel reads the raw
// context and prunes as it opens partitions, so under every variant and
// window 1…h+2, read in batches of 1–4 nodes and now and then none, a
// drained cursor returns the context's ancestors in the list, counts
// what JoinNodeList counts, opens exactly the partitions of
// PruneAncestor's staircase and counts the whole context as read. The
// contexts hold duplicates, nested covered chains and the root twice.
func TestListAncestorPrunesInScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5252))
	for trial := 0; trial < quickMax(30); trial++ {
		d := randomDoc(rng, 50+rng.Intn(400))
		h := int(d.Height())
		list := randomList(rng, d, 0.1+0.8*rng.Float64())
		if len(list) == 0 { // an empty list is never joined: the context goes unread
			continue
		}
		for ci, context := range ancestorContexts(rng, d) {
			want := inList(spec.Join(d, axis.Ancestor, context), list)
			stair := int64(len(PruneAncestor(d, context)))
			for _, v := range []Variant{NoSkip, Skip, SkipEstimate} {
				cfg := fmt.Sprintf("trial %d context %d %v", trial, ci, v)
				var joined Stats
				res, err := JoinNodeList(d, axis.Ancestor, list, context, &Options{Variant: v, Stats: &joined})
				if err != nil {
					t.Fatal(err)
				}
				if !eq32(res, want) {
					t.Fatalf("%s: list join\n got %v\nwant %v\ncontext %v", cfg, res, want, context)
				}
				if joined.PrunedSize != stair || joined.ContextSize != int64(len(context)) {
					t.Fatalf("%s: list join %+v; context %d, staircase %d", cfg, joined, len(context), stair)
				}
				for w := 1; w <= h+2; w++ {
					var st Stats
					cur, err := NewJoinNodeListCursor(d, axis.Ancestor, list, chunkSource(rng, context),
						&Options{Variant: v, Stats: &st})
					if err != nil {
						t.Fatal(err)
					}
					if got := drainCursor(t, cur, w); !eq32(got, want) {
						t.Fatalf("%s window %d: cursor\n got %v\nwant %v\ncontext %v", cfg, w, got, want, context)
					}
					if st != joined {
						t.Fatalf("%s window %d: cursor counters %+v, JoinNodeList's %+v", cfg, w, st, joined)
					}
				}
			}
		}
	}
}
