package core

import (
	"math/rand"
	"sort"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/doc"
)

// specListJoin intersects the specification join with a node list.
func specListJoin(d *doc.Document, a axis.Axis, list, context []int32) []int32 {
	inList := make(map[int32]bool, len(list))
	for _, v := range list {
		inList[v] = true
	}
	var out []int32
	for _, v := range specJoin(d, a, context) {
		if inList[v] {
			out = append(out, v)
		}
	}
	return out
}

// randomList draws a sorted subset of the document's nodes.
func randomList(rng *rand.Rand, d *doc.Document, p float64) []int32 {
	var out []int32
	for v := int32(0); int(v) < d.Size(); v++ {
		if rng.Float64() < p {
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
			want := specListJoin(d, a, list, context)
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
	for _, a := range []axis.Axis{axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding} {
		if got, _ := JoinNodeList(d, a, nil, []int32{0}, nil); len(got) != 0 {
			t.Fatalf("axis %v: empty list gave %v", a, got)
		}
		if got, _ := JoinNodeList(d, a, []int32{1, 2}, nil, nil); len(got) != 0 {
			t.Fatalf("axis %v: empty context gave %v", a, got)
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
	// AllKinds: the |result|+|context| bound counts attribute
	// nodes, which are compared before being filtered from the result.
	DescendantJoinNodeList(d, list, context, &Options{Variant: NoSkip, Stats: &noskip, Emit: Emit{Kinds: AllKinds}})
	DescendantJoinNodeList(d, list, context, &Options{Variant: Skip, Stats: &skip, Emit: Emit{Kinds: AllKinds}})
	if skip.Scanned > noskip.Scanned {
		t.Fatalf("skip scanned %d > noskip scanned %d", skip.Scanned, noskip.Scanned)
	}
	if skip.Scanned > skip.Result+int64(len(context)) {
		t.Fatalf("skip scanned %d > result %d + context %d", skip.Scanned, skip.Result, len(context))
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
	got := AncestorJoinNodeList(d, all, []int32{last}, &Options{Variant: Skip, Stats: &st})
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
	AncestorJoinNodeList(d, all, []int32{last}, &Options{Variant: NoSkip, Stats: &ns})
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
