package baseline

import (
	"staircase/internal/core"
	"staircase/internal/doc"
)

// AncestorJoin evaluates context/ancestor with the paper's partitioned
// scan (Algorithm 2, staircasejoin_anc, and Algorithm 3's skipping), the
// subject of the paper's ancestor experiments. core.Join finds the same
// result by climbing the parent column; this scan stays as the one the
// paper measured. The pruned ancestor staircase partitions the plane at
// the context nodes' pre ranks; partition i is scanned against the
// boundary post rank of its *right* context node with the > comparison
// (ancestors sit above the staircase).
//
// Skipping (§3.3): a node v inside the partition of context node c with
// post(v) < post(c) lies on the preceding axis of c together with all
// of v's descendants, so the scan may jump over the entire subtree of
// v. Equation (1) sizes the jump; the level column makes it exact (the
// paper's estimate post(v)−pre(v) is maximally off by h).
//
// opts selects the variant (NoSkip scans every node; Skip and
// SkipEstimate jump) and the counters, as for core.Join; the result
// holds every ancestor but attributes (no emit test, no OrSelf). It is
// sized once: partition [from, c) holds at most level(c) ancestors of c
// and at most its own width.
func AncestorJoin(d *doc.Document, context []int32, opts *core.Options) []int32 {
	if opts == nil {
		opts = core.DefaultOptions()
	}
	if st := opts.Stats; st != nil {
		st.ContextSize += int64(len(context))
	}
	if len(context) == 0 {
		return nil
	}
	context = core.PruneAncestor(d, context)
	post, level, kind := d.PostSlice(), d.LevelSlice(), d.KindSlice()

	// First partition: [0, c0-1] against boundary post(c0); subsequent
	// partitions: [c_{i-1}+1, c_i - 1] against boundary post(c_i).
	size, from := 0, int32(0)
	for _, c := range context {
		size += int(max(min(level[c], c-from), 0))
		from = c + 1
	}
	out := make([]int32, size)
	k := 0
	var compared, skipped int64
	from = 0
	for _, c := range context {
		bound := post[c]
		for i := from; i < c; {
			compared++
			if post[i] > bound {
				if kind[i] != doc.Attr {
					out[k] = i
					k++
				}
				i++
				continue
			}
			if opts.Variant == core.NoSkip {
				i++
				continue
			}
			// i and all its descendants lie on the preceding axis of c:
			// jump over the subtree, sized exactly by Equation (1).
			next := i + 1 + max(post[i]-i+level[i], 0)
			skipped += int64(min(next, c) - i - 1)
			i = next
		}
		from = c + 1
	}
	if st := opts.Stats; st != nil {
		st.PrunedSize += int64(len(context))
		st.Compared += compared
		st.Scanned += compared
		st.Skipped += skipped
		st.Result += int64(k)
	}
	return out[:k]
}
