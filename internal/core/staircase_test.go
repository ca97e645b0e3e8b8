package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/doc"
	"staircase/internal/spec"
)

// figure1 shreds the running example of the paper (Figures 1, 2, 4, 8):
// a(b(c), d, e(f(g,h), i(j))).
func figure1(t testing.TB) *doc.Document {
	t.Helper()
	d, err := doc.ShredString(`<a><b><c/></b><d/><e><f><g/><h/></f><i><j/></i></e></a>`)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func pres(names string) []int32 {
	// figure1 tags a..j map to pres 0..9
	out := make([]int32, 0, len(names))
	for _, r := range names {
		out = append(out, int32(r-'a'))
	}
	return out
}

func tagsOf(d *doc.Document, ps []int32) string {
	out := make([]byte, len(ps))
	for i, p := range ps {
		out[i] = byte('a' + p)
	}
	return string(out)
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

// isStaircase reports whether context is a proper staircase: strictly
// increasing pre and post ranks.
func isStaircase(d *doc.Document, context []int32) bool {
	post := d.PostSlice()
	for i := 1; i < len(context); i++ {
		if context[i-1] >= context[i] || post[context[i-1]] >= post[context[i]] {
			return false
		}
	}
	return true
}

// join and joinList run Join and JoinNodeList on an axis the caller
// knows to be partitioning.
func join(d *doc.Document, a axis.Axis, context []int32, o *Options) []int32 {
	r, err := Join(d, a, context, o)
	if err != nil {
		panic(err)
	}
	return r
}

func joinList(d *doc.Document, a axis.Axis, list, context []int32, o *Options) []int32 {
	r, err := JoinNodeList(d, a, list, context, o)
	if err != nil {
		panic(err)
	}
	return r
}

func allVariants() []*Options {
	return []*Options{
		{Variant: NoSkip},
		{Variant: Skip},
		{Variant: SkipEstimate},
		nil, // default
	}
}

func TestPruneDescendantFigure6Style(t *testing.T) {
	d := figure1(t)
	// Context (a, b, f, g): b, g are descendants of earlier nodes,
	// f is a descendant of a => staircase (a) alone.
	got := PruneDescendant(d, pres("abfg"))
	if tagsOf(d, got) != "a" {
		t.Fatalf("prune = %q, want %q", tagsOf(d, got), "a")
	}
	// Context (b, d, f): pairwise preceding/following => untouched.
	got = PruneDescendant(d, pres("bdf"))
	if tagsOf(d, got) != "bdf" {
		t.Fatalf("prune = %q, want %q", tagsOf(d, got), "bdf")
	}
	// Duplicates are removed.
	got = PruneDescendant(d, []int32{1, 1, 3})
	if tagsOf(d, got) != "bd" {
		t.Fatalf("prune dup = %q, want %q", tagsOf(d, got), "bd")
	}
}

func TestPruneAncestorFigure4(t *testing.T) {
	d := figure1(t)
	// Paper Figure 4: context (d, e, f, h, i, j); e, f, i lie on paths
	// from other context nodes to the root and are pruned.
	got := PruneAncestor(d, pres("defhij"))
	if tagsOf(d, got) != "dhj" {
		t.Fatalf("prune = %q, want %q", tagsOf(d, got), "dhj")
	}
	// Pruned staircases have strictly increasing pre and post.
	if !isStaircase(d, got) {
		t.Fatal("ancestor-pruned context is not a staircase")
	}
}

func TestFigure4AncestorOrSelfResult(t *testing.T) {
	d := figure1(t)
	context := pres("defhij")
	anc := join(d, axis.Ancestor, context, nil)
	res := MergeOrSelf(anc, context)
	if tagsOf(d, res) != "adefhij" {
		t.Fatalf("ancestor-or-self = %q, want %q", tagsOf(d, res), "adefhij")
	}
	if got := join(d, axis.Ancestor, context, &Options{OrSelf: true}); !eq32(got, res) {
		t.Fatalf("OrSelf join = %q, want %q", tagsOf(d, got), "adefhij")
	}
}

func TestPaperSection21Example(t *testing.T) {
	// (c)/following/descendant = (f, g, h, i, j) — §2.1.
	d := figure1(t)
	foll := join(d, axis.Following, pres("c"), nil)
	if tagsOf(d, foll) != "defghij"[1:] { // following of c = e,f,g,h,i,j? verify below
		// Computed explicitly instead: see assertions following.
		_ = foll
	}
	// c has pre 2, post 0; following = everything with pre>2, post>0:
	// d,e,f,g,h,i,j.
	if tagsOf(d, foll) != "defghij" {
		t.Fatalf("c/following = %q, want %q", tagsOf(d, foll), "defghij")
	}
	desc := join(d, axis.Descendant, foll, nil)
	if tagsOf(d, desc) != "fghij" {
		t.Fatalf("c/following/descendant = %q, want %q", tagsOf(d, desc), "fghij")
	}
}

func TestJoinMatchesSpecOnFigure1AllContexts(t *testing.T) {
	d := figure1(t)
	// All 2^10-1 non-empty context subsets is 1023: cheap enough.
	for mask := 1; mask < 1024; mask++ {
		var context []int32
		for b := 0; b < 10; b++ {
			if mask&(1<<b) != 0 {
				context = append(context, int32(b))
			}
		}
		for _, a := range []axis.Axis{axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding} {
			want := spec.Join(d, a, context)
			for _, o := range allVariants() {
				got, err := Join(d, a, context, o)
				if err != nil {
					t.Fatal(err)
				}
				if !eq32(got, want) {
					t.Fatalf("mask %d axis %v opts %+v: got %v want %v", mask, a, o, got, want)
				}
			}
		}
	}
}

func TestJoinRejectsNonPartitioningAxis(t *testing.T) {
	d := figure1(t)
	if _, err := Join(d, axis.Child, []int32{0}, nil); err == nil {
		t.Fatal("expected error for child axis")
	}
}

func TestEmptyContext(t *testing.T) {
	d := figure1(t)
	for _, a := range []axis.Axis{axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding} {
		got, err := Join(d, a, nil, nil)
		if err != nil || len(got) != 0 {
			t.Fatalf("axis %v: got %v, %v", a, got, err)
		}
	}
}

func TestReduceFollowingPreceding(t *testing.T) {
	d := figure1(t)
	// Context (b, f): min post is b (post 1) -> following boundary.
	c, ok := ReduceFollowing(d, pres("bf"))
	if !ok || tagsOf(d, []int32{c}) != "b" {
		t.Fatalf("ReduceFollowing = %v,%v", c, ok)
	}
	// Max pre is f: the preceding kernel reads it off its held batch.
	held := ctxIn{ctx: pres("bf"), srcDone: true}
	c, ok, _ = held.reducePreceding()
	if !ok || tagsOf(d, []int32{c}) != "f" || held.seen != 2 {
		t.Fatalf("reducePreceding = %v,%v after reading %d nodes", c, ok, held.seen)
	}
	if _, ok := ReduceFollowing(d, nil); ok {
		t.Fatal("empty context should not reduce")
	}
}

// randomDoc builds a random document with attributes for property tests.
func randomDoc(rng *rand.Rand, n int) *doc.Document {
	b := doc.NewBuilder()
	b.OpenElem("root")
	depth := 1
	tags := []string{"p", "q", "r", "s"}
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 5:
			b.OpenElem(tags[rng.Intn(len(tags))])
			for a := rng.Intn(3); a > 0; a-- {
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

// randomContext draws a sorted duplicate-free context over d.
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

func TestPropJoinMatchesSpecOnRandomDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		d := randomDoc(rng, 200)
		context := randomContext(rng, d, 1+rng.Intn(20))
		for _, a := range []axis.Axis{axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding} {
			want := spec.Join(d, a, context)
			for _, o := range allVariants() {
				got, err := Join(d, a, context, o)
				if err != nil {
					t.Fatal(err)
				}
				if !eq32(got, want) {
					t.Fatalf("trial %d axis %v opts %+v:\n got %v\nwant %v\ncontext %v",
						trial, a, o, got, want, context)
				}
			}
		}
	}
}

func TestPropResultDocumentOrderNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 30; trial++ {
		d := randomDoc(rng, 300)
		context := randomContext(rng, d, 1+rng.Intn(30))
		for _, a := range []axis.Axis{axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding} {
			got, err := Join(d, a, context, &Options{Variant: SkipEstimate})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(got); i++ {
				if got[i-1] >= got[i] {
					t.Fatalf("axis %v: result not strictly increasing at %d: %v", a, i, got)
				}
			}
		}
	}
}

func TestPropPrunedContextsAreStaircases(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 30; trial++ {
		d := randomDoc(rng, 250)
		context := randomContext(rng, d, 1+rng.Intn(40))
		if p := PruneDescendant(d, context); !isStaircase(d, p) {
			t.Fatalf("descendant prune is not a staircase: %v", p)
		}
		if p := PruneAncestor(d, context); !isStaircase(d, p) {
			t.Fatalf("ancestor prune is not a staircase: %v", p)
		}
	}
}

func TestPropPruningPreservesResult(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		d := randomDoc(rng, 250)
		context := randomContext(rng, d, 1+rng.Intn(40))
		// The join over the pruned context equals the spec over the
		// full context (pruning does not change the result, §3.1).
		if want, got := spec.Join(d, axis.Descendant, context),
			join(d, axis.Descendant, PruneDescendant(d, context), &Options{Variant: Skip}); !eq32(got, want) {
			t.Fatalf("descendant pruning changed result")
		}
		if want, got := spec.Join(d, axis.Ancestor, context),
			join(d, axis.Ancestor, PruneAncestor(d, context), &Options{Variant: Skip}); !eq32(got, want) {
			t.Fatalf("ancestor pruning changed result")
		}
	}
}

// TestSkipTouchBound verifies §3.3: with skipping, the descendant join
// touches at most |result| + |context| document nodes.
func TestSkipTouchBound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		d := randomDoc(rng, 400)
		context := randomContext(rng, d, 1+rng.Intn(25))
		var st Stats
		res := join(d, axis.Descendant, context, &Options{Variant: Skip, Stats: &st, Emit: Emit{Kinds: AllKinds}})
		if st.Scanned > int64(len(res))+int64(len(context)) {
			t.Fatalf("trial %d: scanned %d > result %d + context %d",
				trial, st.Scanned, len(res), len(context))
		}
	}
}

// TestAncestorClimbTouchesOnlyResult: the document ancestor kernel climbs
// the parent column and prunes inside the climb, so under every variant,
// emit test, OrSelf and window 1…h+2, read in batches of 1–4 nodes, it
// opens exactly the partitions of PruneAncestor's staircase, reads
// exactly the context's ancestors (the result under node(): the paper's
// work bound with no compared extras) and counts the rest of each
// partition as skipped. Seeking may only read less. The contexts hold
// duplicates, nested covered chains (a ⊃ b ⊃ c) and the root.
func TestAncestorClimbTouchesOnlyResult(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	for trial := 0; trial < quickMax(30); trial++ {
		d := randomDoc(rng, 50+rng.Intn(400))
		h := int(d.Height())
		named := func(name string) Emit {
			id, _ := d.Names().Lookup(name)
			return Emit{Kinds: 1 << doc.Elem, ByName: true, Name: id}
		}
		emits := []Emit{{}, named("root"), named("p")}
		for ci, context := range ancestorContexts(rng, d) {
			stair := PruneAncestor(d, context)
			width, from := int64(0), int32(0)
			for _, c := range stair {
				width += int64(c - from)
				from = c + 1
			}
			ancestors := spec.Join(d, axis.Ancestor, context)
			for _, e := range emits {
				for _, orSelf := range []bool{false, true} {
					ref := ancestors
					if orSelf {
						ref = spec.Join(d, axis.AncestorOrSelf, context)
					}
					ref = passing(d, ref, e)
					cfg := fmt.Sprintf("trial %d context %d emit %+v orSelf %v", trial, ci, e, orSelf)
					// check: reads is the nodes the climb must read, or -1
					// for at most the ancestors (a rising seek).
					check := func(face string, st Stats, reads int) {
						if st.PrunedSize != int64(len(stair)) || st.ContextSize != int64(len(context)) ||
							st.Compared != st.Scanned || st.Scanned+st.Skipped != width ||
							st.Scanned > int64(len(ancestors)) || reads >= 0 && st.Scanned != int64(reads) {
							t.Fatalf("%s %s: %+v; context %d, staircase %d, ancestors %d (%d to read), partitions %d wide",
								cfg, face, st, len(context), len(stair), len(ancestors), reads, width)
						}
					}
					var joined Stats
					res := join(d, axis.Ancestor, context, &Options{Variant: Variant(trial % 3), Emit: e, OrSelf: orSelf, Stats: &joined})
					if !eq32(res, ref) {
						t.Fatalf("%s: join\n got %v\nwant %v\ncontext %v", cfg, res, ref, context)
					}
					check("join", joined, len(ancestors))
					for w := 1; w <= h+2; w++ {
						// A seek held from the first call reads the ancestors
						// at or beyond it; a rising one at most every ancestor.
						for _, seeking := range []string{"none", "held", "rising"} {
							var st Stats
							cur, err := NewJoinCursor(d, axis.Ancestor, chunkSource(rng, context),
								&Options{Variant: Variant(w % 3), Emit: e, OrSelf: orSelf, Stats: &st})
							if err != nil {
								t.Fatal(err)
							}
							face := fmt.Sprintf("%v window %d seek %s", Variant(w%3), w, seeking)
							var got []int32
							seek, reads := int32(0), len(ancestors)
							switch seeking {
							case "held":
								seek = 1 + int32(rng.Intn(d.Size()-1))
								reads -= searchList(ancestors, seek)
							case "rising":
								reads = -1
							}
							for {
								b, err := cur.Next(make([]int32, 0, w), seek)
								if err != nil {
									t.Fatal(err)
								}
								if b == nil {
									break
								}
								got = append(got, b...)
								if seeking == "rising" && rng.Intn(2) == 0 {
									seek += int32(rng.Intn(d.Size()/8 + 1))
								}
							}
							check(face, st, reads)
							tail := res[searchList(res, seek):]
							if len(got) < len(tail) || !eq32(got[len(got)-len(tail):], tail) {
								t.Fatalf("%s %s seek %d: cursor\n got %v\nwant tail %v", cfg, face, seek, got, tail)
							}
							for i, n := range got {
								if j := searchList(res, n); j == len(res) || res[j] != n || i > 0 && got[i-1] >= n {
									t.Fatalf("%s %s: cursor produced %v, not an increasing subset of %v", cfg, face, got, res)
								}
							}
							if seeking == "none" && st != joined {
								t.Fatalf("%s %s: cursor counters %+v, Join's %+v", cfg, face, st, joined)
							}
						}
					}
				}
			}
		}
	}
}

// ancestorContexts draws contexts in document order for the ancestor
// kernel to prune: a random one; one with duplicates; nested covered
// chains, each a node with some of its ancestors; and the root with
// nested chains, the root duplicated.
func ancestorContexts(rng *rand.Rand, d *doc.Document) [][]int32 {
	random := randomContext(rng, d, 1+rng.Intn(30))
	var dups []int32
	for _, v := range randomContext(rng, d, 1+rng.Intn(20)) {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			dups = append(dups, v)
		}
	}
	chains := func(withRoot bool) []int32 {
		var out []int32
		if withRoot {
			out = append(out, d.Root(), d.Root())
		}
		for range 1 + rng.Intn(6) {
			v := int32(rng.Intn(d.Size()))
			out = append(out, v)
			for p := d.Parent(v); p > 0; p = d.Parent(p) {
				if rng.Intn(3) != 0 {
					out = append(out, p)
				}
			}
		}
		slices.Sort(out)
		return out
	}
	return [][]int32{random, dups, chains(false), chains(true)}
}

// chunkSource yields context in batches of one to four nodes, and now
// and then an empty one, as a plan's input cursor may when its window
// was used up (its capacity reaches into the rest of the context).
func chunkSource(rng *rand.Rand, context []int32) NodeSource {
	return func() ([]int32, error) {
		if len(context) == 0 {
			return nil, nil
		}
		if rng.Intn(5) == 0 {
			return context[:0], nil
		}
		n := min(1+rng.Intn(4), len(context))
		b := context[:n]
		context = context[n:]
		return b, nil
	}
}

// TestEstimateComparisonBound verifies §4.2: estimation-based skipping
// restricts post-rank comparisons to at most h × |pruned context| nodes.
func TestEstimateComparisonBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 30; trial++ {
		d := randomDoc(rng, 400)
		context := randomContext(rng, d, 1+rng.Intn(25))
		var st Stats
		join(d, axis.Descendant, context, &Options{Variant: SkipEstimate, Stats: &st, Emit: Emit{Kinds: AllKinds}})
		bound := int64(d.Height()) * st.PrunedSize
		if st.Compared > bound {
			t.Fatalf("trial %d: compared %d > h*|context| = %d", trial, st.Compared, bound)
		}
	}
}

func TestStatsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for trial := 0; trial < 20; trial++ {
		d := randomDoc(rng, 300)
		context := randomContext(rng, d, 1+rng.Intn(20))
		for _, v := range []Variant{NoSkip, Skip, SkipEstimate} {
			var st Stats
			res := join(d, axis.Descendant, context, &Options{Variant: v, Stats: &st})
			if st.Scanned != st.Copied+st.Compared {
				t.Fatalf("variant %v: scanned %d != copied %d + compared %d",
					v, st.Scanned, st.Copied, st.Compared)
			}
			if st.Result != int64(len(res)) {
				t.Fatalf("variant %v: result stat %d != len %d", v, st.Result, len(res))
			}
			if st.PrunedSize > st.ContextSize {
				t.Fatalf("variant %v: pruned %d > context %d", v, st.PrunedSize, st.ContextSize)
			}
		}
	}
}

// TestNoSkipScansMoreThanSkip pins the ordering the paper's Figure 11(c)
// shows: scanned(noskip) >= scanned(skip) >= result size.
func TestNoSkipScansMoreThanSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(2222))
	d := randomDoc(rng, 2000)
	context := randomContext(rng, d, 15)
	counts := map[Variant]int64{}
	for _, v := range []Variant{NoSkip, Skip, SkipEstimate} {
		var st Stats
		join(d, axis.Descendant, context, &Options{Variant: v, Stats: &st, Emit: Emit{Kinds: AllKinds}})
		counts[v] = st.Scanned
	}
	if counts[NoSkip] < counts[Skip] {
		t.Fatalf("noskip scanned %d < skip scanned %d", counts[NoSkip], counts[Skip])
	}
	if counts[Skip] != counts[SkipEstimate] {
		// Estimation changes *how* nodes are touched (copied vs
		// compared), not how many.
		t.Fatalf("skip scanned %d != estimate scanned %d", counts[Skip], counts[SkipEstimate])
	}
}

func TestMergeOrSelf(t *testing.T) {
	got := MergeOrSelf([]int32{1, 3, 5}, []int32{2, 3, 9})
	want := []int32{1, 2, 3, 5, 9}
	if !eq32(got, want) {
		t.Fatalf("MergeOrSelf = %v, want %v", got, want)
	}
	if got := MergeOrSelf(nil, nil); len(got) != 0 {
		t.Fatalf("MergeOrSelf(nil,nil) = %v", got)
	}
	if got := MergeOrSelf([]int32{4}, nil); !eq32(got, []int32{4}) {
		t.Fatalf("MergeOrSelf = %v", got)
	}
}

func TestAttributeContextNodes(t *testing.T) {
	d, err := doc.ShredString(`<r a="1"><x b="2"><y/></x></r>`)
	if err != nil {
		t.Fatal(err)
	}
	// Find the attribute node b.
	var attrB int32 = -1
	for v := int32(0); int(v) < d.Size(); v++ {
		if d.KindOf(v) == doc.Attr && d.Name(v) == "b" {
			attrB = v
		}
	}
	// ancestor of @b = (r, x).
	got := join(d, axis.Ancestor, []int32{attrB}, nil)
	want := spec.Join(d, axis.Ancestor, []int32{attrB})
	if !eq32(got, want) {
		t.Fatalf("ancestor of attr = %v, want %v", got, want)
	}
	// descendant of @b is empty.
	if got := join(d, axis.Descendant, []int32{attrB}, nil); len(got) != 0 {
		t.Fatalf("descendant of attr = %v, want empty", got)
	}
}

func TestVariantString(t *testing.T) {
	if NoSkip.String() != "noskip" || Skip.String() != "skip" || SkipEstimate.String() != "skip-estimate" {
		t.Fatal("variant names wrong")
	}
}
