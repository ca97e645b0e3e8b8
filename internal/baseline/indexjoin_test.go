package baseline

import (
	"math/rand"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/btree"
	"staircase/internal/core"
	"staircase/internal/doc"
)

// prepostTree builds the (pre, post) index used by the indexed joins.
func prepostTree(d *doc.Document) *btree.Tree {
	n := d.Size()
	post := d.PostSlice()
	keys := make([]btree.Key, n)
	vals := make([]int32, n)
	for i := 0; i < n; i++ {
		keys[i] = btree.Key{A: int32(i), B: post[i]}
		vals[i] = int32(i)
	}
	return btree.BulkLoad(keys, vals, nil)
}

func TestIndexedJoinsMatchSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		d := randomDoc(rng, 250)
		tree := prepostTree(d)
		context := randomContext(rng, d, 1+rng.Intn(15))
		gotD := IndexedDescendantJoin(d, tree, context, nil)
		wantD := specJoin(d, axis.Descendant, context)
		if !eq32(gotD, wantD) {
			t.Fatalf("trial %d descendant: got %v want %v", trial, gotD, wantD)
		}
		gotA := IndexedAncestorJoin(d, tree, context, nil)
		wantA := specJoin(d, axis.Ancestor, context)
		if !eq32(gotA, wantA) {
			t.Fatalf("trial %d ancestor: got %v want %v", trial, gotA, wantA)
		}
	}
}

func TestIndexedJoinStatsAndDuplicates(t *testing.T) {
	d := figure1(t)
	tree := prepostTree(d)
	// Nested context (a contains e contains f): the un-pruned indexed
	// join re-visits shared regions and produces duplicates.
	context := []int32{0, 4, 5}
	var st IndexJoinStats
	res := IndexedDescendantJoin(d, tree, context, &st)
	if st.Produced <= st.Result {
		t.Fatalf("nested context should produce duplicates: %+v", st)
	}
	if st.Probes != 3 {
		t.Fatalf("probes = %d, want one per context node", st.Probes)
	}
	if int64(len(res)) != st.Result {
		t.Fatalf("result accounting: %d vs %d", len(res), st.Result)
	}
}

// TestIndexedJoinTouchesMoreThanStaircase pins the §5 ordering: the
// staircase join touches fewer nodes than the per-context indexed join
// on nested contexts (pruning removes the covered context nodes).
func TestIndexedJoinTouchesMoreThanStaircase(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	d := randomDoc(rng, 3000)
	tree := prepostTree(d)
	// Build a deliberately nested context: a root-to-leaf chain.
	var context []int32
	v := int32(0)
	for {
		context = append(context, v)
		kids := d.Children(v)
		if len(kids) == 0 {
			break
		}
		v = kids[0]
	}
	var is IndexJoinStats
	IndexedDescendantJoin(d, tree, context, &is)
	var ss core.Stats
	core.DescendantJoin(d, context, &core.Options{Variant: core.Skip, Stats: &ss, Emit: core.Emit{Kinds: core.AllKinds}})
	if ss.Scanned >= is.Touched {
		t.Fatalf("staircase scanned %d >= indexed join touched %d", ss.Scanned, is.Touched)
	}
}
