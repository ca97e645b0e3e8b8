package plan

import (
	"math/rand"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/doc"
)

// TestFollowingBoundMatchesFullScan: the following-axis bound searches
// only the first context node's subtree for the minimum-post node
// (core.ReduceFollowing) and must equal the bound from a scan of the
// whole context, so EXPLAIN's full-join bound lines keep their figures.
func TestFollowingBoundMatchesFullScan(t *testing.T) {
	fullScan := func(d *doc.Document, context []int32) int64 {
		post := d.PostSlice()
		best := context[0]
		for _, c := range context[1:] {
			if post[c] < post[best] {
				best = c
			}
		}
		return int64(d.Size()) - int64(best)
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
				if got, want := estimateJoinTouches(d, axis.Following, c.context), fullScan(d, c.context); got != want {
					t.Fatalf("trial %d, %s, %s context of %d nodes: bound %d, full scan %d", trial, shape, c.name, len(c.context), got, want)
				}
			}
		}
	}
}
