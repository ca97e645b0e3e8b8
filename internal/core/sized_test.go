package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"staircase/internal/axis"
	"staircase/internal/doc"
	"staircase/internal/spec"
)

// Tests of the kernels' sizing rules: a scratch sized once from the
// encoding and results copied out of it at their exact length, pruning
// that does not copy a proper staircase, and the galloping list search.

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

// resultBound recomputes, from the definitions, the Equation (1) bound
// on a document join's result for a proper staircase: the size of the
// scratch the kernel runs into.
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

// staircase returns the context a document join prunes to on axis a:
// the staircase on descendant and ancestor, the context itself on the
// other axes.
func staircase(d *doc.Document, a axis.Axis, context []int32) []int32 {
	switch a {
	case axis.Descendant:
		return PruneDescendant(d, context)
	case axis.Ancestor:
		return PruneAncestor(d, context)
	}
	return context
}

// TestKernelsSizedOnce: Join asks for a scratch of exactly the Equation
// (1) bound — on ancestor, which hands the kernel the raw context, of
// min(|context|·h, last) (+|context| under OrSelf, at most last+1) — the
// kernel's result fits the Equation (1) bound, and the result Join
// returns is an exact copy — its capacity is its length.
func TestKernelsSizedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < quickMax(40); trial++ {
		d := randomDoc(rng, 50+rng.Intn(500))
		context := randomContext(rng, d, 1+rng.Intn(30))
		emits := []Emit{{}, {Kinds: AllKinds}, {Kinds: 1 << doc.Text}, {Kinds: 1 << doc.Elem, ByName: true, Name: 1}, {Kinds: NoKinds}}
		for _, a := range partitioningAxes {
			stair := staircase(d, a, context)
			hand := stair
			switch a {
			case axis.Ancestor:
				hand = context
			case axis.Following:
				f, _ := ReduceFollowing(d, context)
				hand = []int32{f}
			case axis.Preceding:
				hand = context[len(context)-1:]
			}
			for _, v := range []Variant{NoSkip, Skip, SkipEstimate} {
				for _, e := range emits {
					for _, orSelf := range []bool{false, true} {
						self := orSelf && (a == axis.Descendant || a == axis.Ancestor)
						want := resultBound(d, a, stair, self)
						scratch := want
						if a == axis.Ancestor {
							last := int(context[len(context)-1])
							scratch = min(len(context)*int(d.Height()), last)
							if self {
								scratch = min(scratch+len(context), last+1)
							}
						}
						if got := wholeBound(d, a, hand, self); got != scratch || got < want {
							t.Fatalf("axis %v orSelf %v: scratch of %d, want %d, bound %d", a, self, got, scratch, want)
						}
						got, err := Join(d, a, context, &Options{Variant: v, Emit: e, OrSelf: self})
						if err != nil {
							t.Fatal(err)
						}
						if cap(got) != len(got) || len(got) > want {
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
// proper staircase allocates its result and nothing else — the scratch
// it runs into comes back from the pool — and so does a list kernel on
// any context, but the list descendant join, which may copy the context
// once to prune it.
func TestKernelAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	d, contexts, list := goldenFixture(t)
	for _, a := range partitioningAxes {
		for ci, ctx := range contexts {
			stair := staircase(d, a, ctx)
			o := &Options{Variant: SkipEstimate}
			if n := testing.AllocsPerRun(10, func() { Join(d, a, stair, o) }); n > 1 {
				t.Errorf("%v join, staircase %d: %v allocations, want 1", a, ci, n)
			}
			want := 1.0
			if a == axis.Descendant {
				want = 2
			}
			if n := testing.AllocsPerRun(10, func() { JoinNodeList(d, a, list, ctx, o) }); n > want {
				t.Errorf("%v list join, context %d: %v allocations, want <= %v", a, ci, n, want)
			}
		}
	}
}

var allocSink []int32

// allocated returns the fewest bytes one of a few calls of f allocated:
// TotalAlloc counts every goroutine's bytes, so the least reading is f's.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestJoinResultAllocation: a warm Join on a proper staircase allocates
// its result's size class and nothing else — not the bound's, however
// much of it the scan leaves empty (an ancestor join's chains share
// their tops, so they fill little of it).
func TestJoinResultAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	d, contexts, _ := goldenFixture(t)
	for _, a := range partitioningAxes {
		for ci, ctx := range contexts {
			ctx = staircase(d, a, ctx)
			res := join(d, a, ctx, nil)
			got := allocated(func() { allocSink = join(d, a, ctx, nil) })
			want := allocated(func() { allocSink = make([]int32, len(res)) })
			if got != want {
				t.Errorf("%v join, context %d: %d bytes allocated for %d result nodes, want %d",
					a, ci, got, len(res), want)
			}
		}
	}
	allocSink = nil
}

// TestJoinResultsDoNotShareScratch: results of joins run one after
// another, and from several goroutines at once, stay what the region
// predicates say after later joins have reused the scratch.
func TestJoinResultsDoNotShareScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	type call struct {
		d             *doc.Document
		a             axis.Axis
		list, context []int32 // list nil: a document join
		want          []int32
	}
	var calls []call
	for range 12 {
		d := randomDoc(rng, 100+rng.Intn(300))
		context := randomContext(rng, d, 1+rng.Intn(20))
		list := randomList(rng, d, 0.5)
		for _, a := range partitioningAxes {
			want := spec.Join(d, a, context)
			calls = append(calls, call{d: d, a: a, context: context, want: want})
			inList := slices.DeleteFunc(slices.Clone(want), func(v int32) bool {
				_, in := slices.BinarySearch(list, v)
				return !in
			})
			calls = append(calls, call{d: d, a: a, list: list, context: context, want: inList})
		}
	}
	// runAll runs every call rounds times, in an order that starts at
	// from, and checks every result once the last join has run.
	runAll := func(from, rounds int) error {
		got := make([][]int32, 0, rounds*len(calls))
		for k := range rounds * len(calls) {
			c := calls[(from+k)%len(calls)]
			if c.list != nil {
				got = append(got, joinList(c.d, c.a, c.list, c.context, nil))
			} else {
				got = append(got, join(c.d, c.a, c.context, nil))
			}
		}
		for k, r := range got {
			if c := calls[(from+k)%len(calls)]; !eq32(r, c.want) {
				return fmt.Errorf("%v join (list %v) changed after later joins:\n got %v\nwant %v",
					c.a, c.list != nil, r, c.want)
			}
		}
		return nil
	}
	if err := runAll(0, 1); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := range workers {
		go func() { errs <- runAll(w*len(calls)/workers, 4) }()
	}
	for range workers {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestListKernelSizing: a list join's result capacity never exceeds the
// list range its staircase spans nor the document join's bound.
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
			if bound := resultBound(d, a, staircase(d, a, context), false); cap(got) > len(list) || cap(got) > bound {
				t.Fatalf("axis %v: list join capacity %d, list %d, document bound %d", a, cap(got), len(list), bound)
			}
			if a == axis.Ancestor && cap(got) != len(got) {
				t.Fatalf("ancestor list join: len %d cap %d, want an exact copy", len(got), cap(got))
			}
		}
	}
}
