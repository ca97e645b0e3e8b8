package plan

import (
	"math/rand"
	"slices"
	"testing"

	"staircase/internal/doc"
)

// TestFollowingPrefixHoldsMinimumPost: a whole following join reads its
// context only up to the first node beyond the first context node's
// subtree (followingPrefix), in batches or in one, and that prefix holds
// the minimum-post node of the whole context — the one node that decides
// the result.
func TestFollowingPrefixHoldsMinimumPost(t *testing.T) {
	minPost := func(d *doc.Document, context []int32) int32 {
		post := d.PostSlice()
		best := context[0]
		for _, c := range context[1:] {
			if post[c] < post[best] {
				best = c
			}
		}
		return best
	}
	// sample draws a sorted, duplicate-free context from [lo, hi) keeping
	// each node with probability p.
	sample := func(rng *rand.Rand, lo, hi int32, p float64) []int32 {
		var out []int32
		for v := lo; v < hi; v++ {
			if rng.Float64() < p {
				out = append(out, v)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		for shape, d := range fusedDocs(t, rng) {
			n := int32(d.Size())
			mid := rng.Int31n(n)
			for _, c := range []struct {
				name    string
				context []int32
			}{
				{"root", []int32{d.Root()}},
				{"last node", []int32{n - 1}},
				{"one node", []int32{mid}},
				{"a subtree", sample(rng, mid, mid+d.SubtreeSize(mid)+1, 1)},
				{"a subtree and beyond", sample(rng, mid, n, 0.3)},
				{"sparse", sample(rng, 0, n, 0.02)},
				{"dense", sample(rng, 0, n, 0.7)},
				{"every node", sample(rng, 0, n, 1)},
			} {
				if len(c.context) == 0 {
					continue
				}
				for _, whole := range []bool{false, true} {
					in := &sliceCursor{nodes: c.context, whole: whole}
					prefix, err := followingPrefix(d, in)
					if err != nil {
						t.Fatal(err)
					}
					if len(prefix) == 0 || !slices.Equal(prefix, c.context[:len(prefix)]) {
						t.Fatalf("trial %d, %s, %s context: prefix %v is not a prefix of %v", trial, shape, c.name, prefix, c.context)
					}
					if got, want := minPost(d, prefix), minPost(d, c.context); got != want {
						t.Fatalf("trial %d, %s, %s context of %d nodes: prefix of %d holds minimum-post %d, the whole context %d",
							trial, shape, c.name, len(c.context), len(prefix), got, want)
					}
				}
			}
		}
	}
}
