package frag

import (
	"math/rand"
	"sort"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/engine"
	"staircase/internal/xmark"
)

func randomDoc(rng *rand.Rand, n int) *doc.Document {
	b := doc.NewBuilder()
	b.OpenElem("root")
	depth := 1
	tags := []string{"p", "q", "r"}
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 5:
			b.OpenElem(tags[rng.Intn(len(tags))])
			if rng.Intn(4) == 0 {
				b.Attr("k", "v")
			}
			depth++
		case r < 7 && depth > 1:
			b.CloseElem()
			depth--
		default:
			b.Text("t")
		}
	}
	for depth > 0 {
		b.CloseElem()
		depth--
	}
	d, err := b.Done()
	if err != nil {
		panic(err)
	}
	return d
}

func randomContext(rng *rand.Rand, d *doc.Document, k int) []int32 {
	seen := map[int32]bool{}
	for len(seen) < k && len(seen) < d.Size() {
		seen[int32(rng.Intn(d.Size()))] = true
	}
	out := make([]int32, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func eq32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStoreFragmentsPartitionElements(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randomDoc(rng, 400)
	s := NewStore(d)
	// Every element appears in exactly its tag's fragment; fragments
	// are sorted.
	total := 0
	for _, tag := range []string{"root", "p", "q", "r"} {
		f := s.Fragment(tag)
		total += len(f)
		for i, v := range f {
			if d.KindOf(v) != doc.Elem || d.Name(v) != tag {
				t.Fatalf("fragment %q holds node %d (%v %q)", tag, v, d.KindOf(v), d.Name(v))
			}
			if i > 0 && f[i-1] >= v {
				t.Fatalf("fragment %q unsorted", tag)
			}
		}
	}
	elems := 0
	for v := 0; v < d.Size(); v++ {
		switch d.KindOf(int32(v)) {
		case doc.Elem:
			elems++
		}
	}
	if total != elems {
		t.Fatalf("fragments cover %d elements, document has %d", total, elems)
	}
	if s.Fragment("nosuch") != nil {
		t.Fatal("unknown tag should yield nil fragment")
	}
	if s.Fragments() == 0 || len(s.TextFragment()) == 0 {
		t.Fatal("fragment accounting broken")
	}
}

func TestStoreStepMatchesEngine(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.1, Seed: 5, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(d)
	e := engine.New(d)

	// Q1 over fragments vs engine.
	got, err := s.Path([]PathStep{
		{Axis: axis.Descendant, Tag: "profile"},
		{Axis: axis.Descendant, Tag: "education"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.EvalString("/descendant::profile/descendant::education", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eq32(got, want.Nodes) {
		t.Fatalf("fragment Q1 = %d nodes, engine = %d nodes", len(got), len(want.Nodes))
	}

	// Q2.
	got, err = s.Path([]PathStep{
		{Axis: axis.Descendant, Tag: "increase"},
		{Axis: axis.Ancestor, Tag: "bidder"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err = e.EvalString("/descendant::increase/ancestor::bidder", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eq32(got, want.Nodes) {
		t.Fatalf("fragment Q2 = %d nodes, engine = %d nodes", len(got), len(want.Nodes))
	}
}

func TestStoreStepUnknownTag(t *testing.T) {
	d := randomDoc(rand.New(rand.NewSource(2)), 100)
	s := NewStore(d)
	got, err := s.Step(axis.Descendant, "zzz", []int32{0}, nil)
	if err != nil || got != nil {
		t.Fatalf("unknown tag: %v, %v", got, err)
	}
	if _, err := s.Step(axis.Child, "p", []int32{0}, nil); err == nil {
		t.Fatal("expected error for non-partitioning axis")
	}
}

func TestParallelJoinMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 15; trial++ {
		d := randomDoc(rng, 600)
		context := randomContext(rng, d, 1+rng.Intn(40))
		for _, a := range []axis.Axis{axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding} {
			want, err := core.Join(d, a, context, nil)
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

func TestParallelJoinStatsMerged(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randomDoc(rng, 2000)
	context := randomContext(rng, d, 30)
	var seq, par core.Stats
	core.DescendantJoin(d, context, &core.Options{Variant: core.Skip, Stats: &seq, Emit: core.Emit{Kinds: core.AllKinds}})
	ParallelDescendantJoin(d, context, 4, &core.Options{Variant: core.Skip, Stats: &par, Emit: core.Emit{Kinds: core.AllKinds}})
	if par.Result != seq.Result {
		t.Fatalf("result counters differ: %d vs %d", par.Result, seq.Result)
	}
	if par.Scanned == 0 {
		t.Fatal("parallel stats not merged")
	}
}

func TestParallelJoinVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	d := randomDoc(rng, 800)
	context := randomContext(rng, d, 25)
	for _, v := range []core.Variant{core.NoSkip, core.Skip, core.SkipEstimate} {
		want, _ := core.Join(d, axis.Descendant, context, &core.Options{Variant: v})
		got := ParallelDescendantJoin(d, context, 3, &core.Options{Variant: v})
		if !eq32(got, want) {
			t.Fatalf("variant %v: parallel differs", v)
		}
		wantA, _ := core.Join(d, axis.Ancestor, context, &core.Options{Variant: v})
		gotA := ParallelAncestorJoin(d, context, 3, &core.Options{Variant: v})
		if !eq32(gotA, wantA) {
			t.Fatalf("variant %v: parallel ancestor differs", v)
		}
	}
}

func TestParallelEmptyContext(t *testing.T) {
	d := randomDoc(rand.New(rand.NewSource(3)), 100)
	if got := ParallelDescendantJoin(d, nil, 4, nil); len(got) != 0 {
		t.Fatalf("empty context gave %v", got)
	}
	if got := ParallelAncestorJoin(d, nil, 4, nil); len(got) != 0 {
		t.Fatalf("empty context gave %v", got)
	}
}

func TestDefaultWorkers(t *testing.T) {
	// The chunking logic itself is exercised in core (PartitionStaircase
	// and the Parallel*Join property tests); here only the wrapper
	// plumbing remains.
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}
