package baseline

import (
	"math/rand"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/core"
	"staircase/internal/spec"
)

func TestIndexedJoinsMatchSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		d := randomDoc(rng, 250)
		context := randomContext(rng, d, 1+rng.Intn(15))
		got := IndexedAncestorJoin(d, context, nil)
		want := spec.Join(d, axis.Ancestor, context)
		if !eq32(got, want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestIndexedJoinStatsAndDuplicates(t *testing.T) {
	d := figure1(t)
	// Nested context (f lies on the paths of g and h): the un-pruned
	// indexed join climbs the shared path a/e again from each context
	// node and produces duplicates.
	context := []int32{5, 6, 7}
	var st IndexJoinStats
	res := IndexedAncestorJoin(d, context, &st)
	// f climbs 2 hops (e, a), g and h 3 each (f, e, a).
	if st.Probes != 8 || st.Touched != 8 {
		t.Fatalf("probes %d, touched %d, want one per hop (8)", st.Probes, st.Touched)
	}
	if st.Produced <= st.Result {
		t.Fatalf("nested context should produce duplicates: %+v", st)
	}
	if int64(len(res)) != st.Result || !eq32(res, []int32{0, 4, 5}) {
		t.Fatalf("result %v, accounting %+v", res, st)
	}
}

// TestIndexedJoinTouchesMoreThanStaircase pins the §5 ordering: the
// staircase join touches fewer nodes than the per-context indexed join
// when the context nodes' ancestor paths overlap (pruning keeps one
// context node per path, skipping jumps the subtrees off it).
func TestIndexedJoinTouchesMoreThanStaircase(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	d := randomDoc(rng, 3000)
	// Every leaf of the document: their ancestor paths share prefixes.
	var context []int32
	for v := int32(0); int(v) < d.Size(); v++ {
		if d.SubtreeSize(v) == 0 {
			context = append(context, v)
		}
	}
	var is IndexJoinStats
	IndexedAncestorJoin(d, context, &is)
	var ss core.Stats
	AncestorJoin(d, context, &core.Options{Variant: core.Skip, Stats: &ss})
	if ss.Scanned >= is.Touched {
		t.Fatalf("staircase scanned %d >= indexed join touched %d", ss.Scanned, is.Touched)
	}
}
