package core

import (
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"staircase/internal/axis"
	"staircase/internal/doc"
)

// Tests of the batch kernels' three rules: results sized once from the
// encoding, pruning that does not copy a proper staircase, and the
// galloping list search.

// quickMax returns the testing/quick iteration count: the default in
// ordinary runs, or STAIRCASE_QUICK_MAX when set (the nightly CI job
// cranks the property suites up through this knob).
func quickMax(def int) int {
	if s := os.Getenv("STAIRCASE_QUICK_MAX"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func refSearch(list []int32, lo int, pre int32) int {
	return lo + sort.Search(len(list)-lo, func(i int) bool { return list[lo+i] >= pre })
}

func checkSearchFrom(t *testing.T, list []int32) {
	t.Helper()
	probes := []int32{-1, 0}
	for _, v := range list {
		probes = append(probes, v-1, v, v+1)
	}
	for lo := 0; lo <= len(list); lo++ {
		for _, pre := range probes {
			if got, want := searchFrom(list, lo, pre), refSearch(list, lo, pre); got != want {
				t.Fatalf("searchFrom(%v, %d, %d) = %d, want %d", list, lo, pre, got, want)
			}
		}
	}
	for _, pre := range probes {
		if got, want := searchList(list, pre), refSearch(list, 0, pre); got != want {
			t.Fatalf("searchList(%v, %d) = %d, want %d", list, pre, got, want)
		}
	}
}

func TestSearchFromBoundaries(t *testing.T) {
	checkSearchFrom(t, nil)
	checkSearchFrom(t, []int32{7})
	checkSearchFrom(t, []int32{2, 4, 4, 4, 9}) // probe value repeated; 3 and 5 absent
	// Hops of 0, 1 and 2^k: every start index against every probe of a
	// list longer than the largest power of two below it.
	long := make([]int32, 70)
	for i := range long {
		long[i] = int32(3 * i)
	}
	checkSearchFrom(t, long)
}

func TestSearchFromMatchesSortSearch(t *testing.T) {
	prop := func(gaps []uint8) bool {
		list := make([]int32, len(gaps))
		v := int32(0)
		for i, g := range gaps {
			v += int32(g % 4) // gaps of 0 keep duplicates in the list
			list[i] = v
		}
		checkSearchFrom(t, list)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: quickMax(200)}); err != nil {
		t.Fatal(err)
	}
}

func TestPruneReturnsArgumentIffNothingPruned(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < quickMax(60); trial++ {
		d := randomDoc(rng, 300)
		context := randomContext(rng, d, 1+rng.Intn(25))
		if rng.Intn(3) == 0 {
			context = append(context, context[len(context)-1]) // a duplicate
		}
		for _, prune := range []func(*doc.Document, []int32) []int32{PruneDescendant, PruneAncestor} {
			before := append([]int32(nil), context...)
			got := prune(d, context)
			if !eq32(context, before) {
				t.Fatal("prune modified its argument")
			}
			same := len(got) > 0 && &got[0] == &context[0]
			if kept := len(got) == len(context); same != kept {
				t.Fatalf("context %v pruned to %v: shares backing array = %v", context, got, same)
			}
			if again := prune(d, got); len(again) != len(got) || &again[0] != &got[0] {
				t.Fatalf("pruning the staircase %v again copied or changed it", got)
			}
		}
	}
	if got := PruneDescendant(figure1(t), nil); got != nil {
		t.Fatalf("prune(nil) = %v", got)
	}
}

// resultBound recomputes, from the definitions, the size the document
// kernels allocate for a proper staircase.
func resultBound(d *doc.Document, a axis.Axis, stair []int32, orSelf bool) int {
	n := int32(d.Size())
	bound := 0
	switch a {
	case axis.Descendant:
		for i, c := range stair {
			width := n - 1 - c
			if i+1 < len(stair) {
				width = stair[i+1] - 1 - c
			}
			bound += int(min(d.SubtreeSize(c), width))
		}
	case axis.Ancestor:
		from := int32(0)
		for _, c := range stair {
			bound += int(min(d.Level(c), c-from))
			from = c + 1
		}
	case axis.Following:
		c, _ := ReduceFollowing(d, stair)
		return int(n - min(c+1+d.SubtreeSize(c), n))
	case axis.Preceding:
		return int(stair[len(stair)-1])
	}
	if orSelf {
		bound += len(stair)
	}
	return bound
}

func TestKernelsSizedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < quickMax(40); trial++ {
		d := randomDoc(rng, 50+rng.Intn(500))
		context := randomContext(rng, d, 1+rng.Intn(30))
		emits := []Emit{{}, {Kinds: AllKinds}, {Kinds: 1 << doc.Text}, {Kinds: 1 << doc.Elem, ByName: true, Name: 1}, {Kinds: NoKinds}}
		for _, a := range partitioningAxes {
			stair := context
			switch a {
			case axis.Descendant:
				stair = PruneDescendant(d, context)
			case axis.Ancestor:
				stair = PruneAncestor(d, context)
			}
			for _, v := range []Variant{NoSkip, Skip, SkipEstimate} {
				for _, e := range emits {
					for _, orSelf := range []bool{false, true} {
						self := orSelf && (a == axis.Descendant || a == axis.Ancestor)
						got, err := Join(d, a, context, &Options{Variant: v, Emit: e, OrSelf: self})
						if err != nil {
							t.Fatal(err)
						}
						if want := resultBound(d, a, stair, self); cap(got) != want || len(got) > want {
							t.Fatalf("axis %v variant %v emit %+v orSelf %v: len %d cap %d, bound %d",
								a, v, e, self, len(got), cap(got), want)
						}
					}
				}
			}
		}
	}
}

// TestKernelAllocations pins the allocation count: a document kernel on a
// proper staircase allocates its result and nothing else; a list kernel
// may copy the context once to prune it.
func TestKernelAllocations(t *testing.T) {
	d, contexts, list := goldenFixture(t)
	for _, a := range partitioningAxes {
		for ci, ctx := range contexts {
			stair := ctx
			switch a {
			case axis.Descendant:
				stair = PruneDescendant(d, ctx)
			case axis.Ancestor:
				stair = PruneAncestor(d, ctx)
			}
			o := &Options{Variant: SkipEstimate}
			if n := testing.AllocsPerRun(10, func() { Join(d, a, stair, o) }); n > 1 {
				t.Errorf("%v join, staircase %d: %v allocations, want 1", a, ci, n)
			}
			if n := testing.AllocsPerRun(10, func() { JoinNodeList(d, a, list, ctx, o) }); n > 2 {
				t.Errorf("%v list join, context %d: %v allocations, want <= 2", a, ci, n)
			}
		}
	}
}

// TestListKernelSizing: a list join's result capacity never exceeds the
// list range its staircase spans nor the document bound.
func TestListKernelSizing(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < quickMax(40); trial++ {
		d := randomDoc(rng, 50+rng.Intn(500))
		context := randomContext(rng, d, 1+rng.Intn(30))
		list := randomList(rng, d, 0.1+0.8*rng.Float64())
		for _, a := range partitioningAxes {
			got, err := JoinNodeList(d, a, list, context, nil)
			if err != nil {
				t.Fatal(err)
			}
			docRes, _ := Join(d, a, context, &Options{Variant: SkipEstimate, Emit: Emit{Kinds: AllKinds}})
			if cap(got) > len(list) || cap(got) > cap(docRes) {
				t.Fatalf("axis %v: list join capacity %d, list %d, document bound %d", a, cap(got), len(list), cap(docRes))
			}
		}
	}
}
