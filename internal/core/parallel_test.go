package core

import (
	"math/rand"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/doc"
)

var allAxes = []axis.Axis{axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding}

// --- partitioner -----------------------------------------------------------

func checkChunks(t *testing.T, chunks []Chunk, k, workers int) {
	t.Helper()
	if k == 0 {
		if chunks != nil {
			t.Fatalf("empty context produced chunks %v", chunks)
		}
		return
	}
	if len(chunks) == 0 || len(chunks) > workers || len(chunks) > k {
		t.Fatalf("got %d chunks for k=%d workers=%d", len(chunks), k, workers)
	}
	if chunks[0].Lo != 0 || chunks[len(chunks)-1].Hi != k {
		t.Fatalf("chunks %v do not cover [0,%d)", chunks, k)
	}
	for i, ch := range chunks {
		if ch.Lo >= ch.Hi {
			t.Fatalf("empty chunk %v at %d", ch, i)
		}
		if i > 0 && chunks[i-1].Hi != ch.Lo {
			t.Fatalf("chunks %v not adjacent at %d", chunks, i)
		}
	}
}

func TestPartitionStaircase(t *testing.T) {
	// Empty context.
	if got := PartitionStaircase(nil, 4, 0, 100); got != nil {
		t.Fatalf("empty context: %v", got)
	}
	// Single-node context: one chunk regardless of workers.
	one := []int32{7}
	for _, w := range []int{0, 1, 4} {
		got := PartitionStaircase(one, w, 7, 100)
		checkChunks(t, got, 1, 1)
	}
	// K > len(context) clamps to at most one chunk per node (fewer when
	// span balancing merges narrow staircase steps).
	ctx := []int32{2, 5, 9}
	got := PartitionStaircase(ctx, 10, 2, 20)
	checkChunks(t, got, 3, 3)
	// Equidistant staircase steps with K = len(context) do split fully.
	even := []int32{0, 10, 20}
	got = PartitionStaircase(even, 3, 0, 30)
	checkChunks(t, got, 3, 3)
	if len(got) != 3 {
		t.Fatalf("want 3 singleton chunks for even spacing, got %v", got)
	}
	// workers <= 1 degenerates to a single chunk.
	got = PartitionStaircase(ctx, 1, 2, 20)
	if len(got) != 1 || got[0] != (Chunk{0, 3}) {
		t.Fatalf("workers=1: %v", got)
	}
	// Span balancing: a context whose first step covers most of the
	// span must not serialise — the wide step gets its own chunk.
	wide := []int32{0, 900, 950}
	got = PartitionStaircase(wide, 3, 0, 1000)
	checkChunks(t, got, 3, 3)
	if got[0].Hi != 1 {
		t.Fatalf("wide first step not isolated: %v", got)
	}
	// Inverted/degenerate span still covers the context.
	got = PartitionStaircase(ctx, 2, 30, 10)
	checkChunks(t, got, 3, 2)
}

func TestPartitionStaircaseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(50)
		ctx := make([]int32, 0, k)
		pre := int32(0)
		for i := 0; i < k; i++ {
			pre += 1 + int32(rng.Intn(40))
			ctx = append(ctx, pre)
		}
		workers := rng.Intn(12)
		w := workers
		if w < 1 {
			w = 1
		}
		if w > k {
			w = k
		}
		chunks := PartitionStaircase(ctx, workers, ctx[0], pre+int32(rng.Intn(100)))
		checkChunks(t, chunks, k, w)
	}
}

// --- parallel joins: edge cases --------------------------------------------

func TestParallelJoinEmptyContext(t *testing.T) {
	d := randomDoc(rand.New(rand.NewSource(4)), 120)
	for _, a := range allAxes {
		got, err := ParallelJoin(d, a, nil, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("axis %v: empty context gave %v", a, got)
		}
	}
}

func TestParallelAxisJoinsEmptyContext(t *testing.T) {
	d := randomDoc(rand.New(rand.NewSource(3)), 100)
	if got := ParallelDescendantJoin(d, nil, 4, nil); len(got) != 0 {
		t.Fatalf("descendant: empty context gave %v", got)
	}
	if got := ParallelAncestorJoin(d, nil, 4, nil); len(got) != 0 {
		t.Fatalf("ancestor: empty context gave %v", got)
	}
}

func TestParallelJoinSingleNodeContext(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randomDoc(rng, 300)
	for _, c := range []int32{0, int32(d.Size() / 2), int32(d.Size() - 1)} {
		for _, a := range allAxes {
			want, err := Join(d, a, []int32{c}, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ParallelJoin(d, a, []int32{c}, 6, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !eq32(got, want) {
				t.Fatalf("axis %v context {%d}: got %v want %v", a, c, got, want)
			}
		}
	}
}

func TestParallelJoinContextInsideOneSubtree(t *testing.T) {
	// A context entirely inside one subtree prunes (descendant axis) to
	// that subtree's root: a single staircase partition no matter how
	// many workers are requested.
	rng := rand.New(rand.NewSource(6))
	d := randomDoc(rng, 400)
	// Find an element with a reasonably large subtree.
	var top int32 = -1
	for v := int32(1); int(v) < d.Size(); v++ {
		if d.SubtreeSize(v) >= 10 {
			top = v
			break
		}
	}
	if top < 0 {
		t.Skip("no subtree of size >= 10 in the random document")
	}
	context := []int32{top}
	for v := top + 1; v <= top+d.SubtreeSize(top); v += 3 {
		context = append(context, v)
	}
	if p := PruneDescendant(d, context); len(p) != 1 || p[0] != top {
		t.Fatalf("expected context to prune to subtree root, got %v", p)
	}
	for _, a := range allAxes {
		want, err := Join(d, a, context, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := ParallelJoin(d, a, context, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !eq32(got, want) {
				t.Fatalf("axis %v workers %d: got %d nodes, want %d", a, workers, len(got), len(want))
			}
		}
	}
}

func TestParallelJoinMoreWorkersThanContext(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := randomDoc(rng, 250)
	context := randomContext(rng, d, 5)
	for _, a := range allAxes {
		want, err := Join(d, a, context, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParallelJoin(d, a, context, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !eq32(got, want) {
			t.Fatalf("axis %v: K>len(context) mismatch", a)
		}
	}
}

func TestParallelJoinOneWorkerIsSerialPath(t *testing.T) {
	// workers <= 1 must not spawn: it takes the serial code path and
	// leaves the Workers counter untouched.
	rng := rand.New(rand.NewSource(9))
	d := randomDoc(rng, 300)
	context := randomContext(rng, d, 12)
	for _, a := range allAxes {
		var st Stats
		got, err := ParallelJoin(d, a, context, 1, &Options{Variant: SkipEstimate, Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Join(d, a, context, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !eq32(got, want) {
			t.Fatalf("axis %v: workers=1 mismatch", a)
		}
		if st.Workers != 0 {
			t.Fatalf("axis %v: workers=1 recorded Workers=%d", a, st.Workers)
		}
	}
}

func TestParallelJoinDenseLowPres(t *testing.T) {
	// Context nodes at pre 0 and 1: the first chunk's scan range can be
	// empty (ScanLimit would be 0, which the serial join reads as
	// "unbounded") — the dedicated guard must keep results exact.
	rng := rand.New(rand.NewSource(10))
	d := randomDoc(rng, 200)
	context := []int32{0, 1, 2, 3}
	for _, a := range allAxes {
		want, err := Join(d, a, context, nil)
		if err != nil {
			t.Fatal(err)
		}
		for workers := 1; workers <= 5; workers++ {
			got, err := ParallelJoin(d, a, context, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !eq32(got, want) {
				t.Fatalf("axis %v workers %d: got %v want %v", a, workers, got, want)
			}
		}
	}
}

func TestParallelJoinStatsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := randomDoc(rng, 1500)
	context := randomContext(rng, d, 40)
	for _, a := range allAxes {
		var ser, par Stats
		want, err := Join(d, a, context, &Options{Variant: SkipEstimate, Stats: &ser})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParallelJoin(d, a, context, 4, &Options{Variant: SkipEstimate, Stats: &par})
		if err != nil {
			t.Fatal(err)
		}
		if !eq32(got, want) {
			t.Fatalf("axis %v: result mismatch", a)
		}
		if par.Result != int64(len(got)) {
			t.Fatalf("axis %v: Result=%d, len=%d", a, par.Result, len(got))
		}
		if par.ContextSize != ser.ContextSize {
			t.Fatalf("axis %v: ContextSize %d vs serial %d", a, par.ContextSize, ser.ContextSize)
		}
		if par.PrunedSize != ser.PrunedSize {
			t.Fatalf("axis %v: PrunedSize %d vs serial %d", a, par.PrunedSize, ser.PrunedSize)
		}
		if par.Workers < 1 {
			t.Fatalf("axis %v: Workers=%d not recorded", a, par.Workers)
		}
	}
}

func TestParallelDescendantJoinStatsMerged(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randomDoc(rng, 2000)
	context := randomContext(rng, d, 30)
	var seq, par Stats
	DescendantJoin(d, context, &Options{Variant: Skip, Stats: &seq, Emit: Emit{Kinds: AllKinds}})
	ParallelDescendantJoin(d, context, 4, &Options{Variant: Skip, Stats: &par, Emit: Emit{Kinds: AllKinds}})
	if par.Result != seq.Result {
		t.Fatalf("result counters differ: %d vs %d", par.Result, seq.Result)
	}
	if par.Scanned == 0 {
		t.Fatal("parallel stats not merged")
	}
}

func TestParallelJoinMatchesSequentialRandomDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 15; trial++ {
		d := randomDoc(rng, 600)
		context := randomContext(rng, d, 1+rng.Intn(40))
		for _, a := range allAxes {
			want, err := Join(d, a, context, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 4, 8, 100} {
				got, err := ParallelJoin(d, a, context, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !eq32(got, want) {
					t.Fatalf("trial %d axis %v workers %d:\n got %v\nwant %v\ncontext %v",
						trial, a, workers, got, want, context)
				}
			}
		}
	}
}

func TestParallelAxisJoinsVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	d := randomDoc(rng, 800)
	context := randomContext(rng, d, 25)
	for _, v := range []Variant{NoSkip, Skip, SkipEstimate} {
		want := DescendantJoin(d, context, &Options{Variant: v})
		if got := ParallelDescendantJoin(d, context, 3, &Options{Variant: v}); !eq32(got, want) {
			t.Fatalf("variant %v: parallel descendant differs", v)
		}
		want = AncestorJoin(d, context, &Options{Variant: v})
		if got := ParallelAncestorJoin(d, context, 3, &Options{Variant: v}); !eq32(got, want) {
			t.Fatalf("variant %v: parallel ancestor differs", v)
		}
	}
}

// TestParallelJoinNoSharedAppend guards the partition disjointness
// invariant end to end: per-worker outputs must be strictly increasing
// and each worker's last pre rank must stay below the next worker's
// first (checked implicitly through the concatenated result).
func TestParallelJoinOutputStrictlyIncreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		d := randomDoc(rng, 200+rng.Intn(600))
		context := randomContext(rng, d, 1+rng.Intn(30))
		for _, a := range allAxes {
			got, err := ParallelJoin(d, a, context, 2+rng.Intn(7), &Options{Emit: Emit{Kinds: []KindMask{0, AllKinds}[rng.Intn(2)]}, OrSelf: rng.Intn(2) == 0})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(got); i++ {
				if got[i-1] >= got[i] {
					t.Fatalf("trial %d axis %v: output not strictly increasing at %d: %v", trial, a, i, got)
				}
			}
		}
	}
}

func eqDoc(t *testing.T, d *doc.Document, a axis.Axis, context []int32, workers int, o Options) {
	t.Helper()
	so := o
	want, err := Join(d, a, context, &so)
	if err != nil {
		t.Fatal(err)
	}
	po := o
	got, err := ParallelJoin(d, a, context, workers, &po)
	if err != nil {
		t.Fatal(err)
	}
	if !eq32(got, want) {
		t.Fatalf("axis %v workers %d opts %+v: parallel differs from serial", a, workers, o)
	}
}

func TestParallelJoinAllVariantOptionCombinations(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d := randomDoc(rng, 900)
	context := randomContext(rng, d, 35)
	for _, a := range allAxes {
		for _, v := range []Variant{NoSkip, Skip, SkipEstimate} {
			for _, e := range []Emit{{}, {Kinds: AllKinds}, {Kinds: 1 << doc.Elem, ByName: true, Name: d.NameID(context[0])}} {
				for _, workers := range []int{2, 3, 7} {
					eqDoc(t, d, a, context, workers, Options{Variant: v, Emit: e})
					eqDoc(t, d, a, context, workers, Options{Variant: v, Emit: e, OrSelf: true})
				}
			}
		}
	}
}
