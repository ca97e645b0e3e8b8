package core

import (
	"staircase/internal/doc"
)

// AncestorJoin evaluates context/ancestor with the staircase join
// (Algorithm 2, staircasejoin_anc). The pruned ancestor staircase
// partitions the plane at the context nodes' pre ranks; partition i is
// scanned against the boundary post rank of its *right* context node
// with the > comparison (ancestors sit above the staircase).
//
// Skipping (§3.3): a node v inside the partition of context node c with
// post(v) < post(c) lies on the preceding axis of c together with all
// of v's descendants, so the scan may jump over the entire subtree of
// v. Equation (1) sizes the jump; the level column makes it exact (the
// paper's estimate post(v)−pre(v) is maximally off by h).
//
// The result is sized once: partition [from, c) holds at most level(c)
// ancestors of c and at most its own width.
func AncestorJoin(d *doc.Document, context []int32, opts *Options) []int32 {
	o := opts.orDefault()
	st := o.Stats
	st.addContext(int64(len(context)))
	if len(context) == 0 {
		return nil
	}
	if !o.AssumePruned {
		context = PruneAncestor(d, context)
	}
	post, level := d.PostSlice(), d.LevelSlice()
	e := o.Emit.cols(d)
	mask, id, kind, name := e.mask, e.id, e.kind, e.name

	// First partition: [0, c0-1] against boundary post(c0); subsequent
	// partitions: [c_{i-1}+1, c_i - 1] against boundary post(c_i). Under
	// parallel execution the partitions before ScanStart belong to
	// another worker.
	start, size := max(o.ScanStart, 0), 0
	from := start
	for _, c := range context {
		size += int(max(min(level[c], c-from), 0))
		from = c + 1
	}
	if o.OrSelf {
		size += len(context)
	}
	out := make([]int32, size)
	k := 0
	var compared, skipped int64
	from = start
	for _, c := range context {
		bound := post[c]
		for i := from; i < c; {
			compared++
			if post[i] > bound {
				if mask>>kind[i]&1 != 0 && (name == nil || name[i] == id) {
					out[k] = i
					k++
				}
				i++
				continue
			}
			if o.Variant == NoSkip {
				i++
				continue
			}
			// i and all its descendants lie on the preceding axis of c:
			// jump over the subtree, sized exactly by Equation (1).
			next := i + 1 + max(post[i]-i+level[i], 0)
			skipped += int64(min(next, c) - i - 1)
			i = next
		}
		if o.OrSelf && e.pass(c) {
			out[k] = c
			k++
		}
		from = c + 1
	}
	st.addScan(len(context), 0, compared, skipped, k)
	return out[:k]
}

// FollowingJoin evaluates context/following. After pruning, the context
// degenerates to the single node with minimum postorder rank (§3.1), so
// the join is one region query: every node after the subtree of c
// follows c, and the region's width is the result bound.
func FollowingJoin(d *doc.Document, context []int32, opts *Options) []int32 {
	o := opts.orDefault()
	st := o.Stats
	st.addContext(int64(len(context)))
	c, ok := ReduceFollowing(d, context)
	if !ok {
		return nil
	}
	n := int32(d.Size())
	start := min(c+1+d.SubtreeSize(c), n) // first pre after c's subtree
	e := o.Emit.cols(d)
	out := make([]int32, n-start)
	k := e.emitRange(out, 0, start, n-1)
	st.addScan(1, int64(n-start), 0, 0, k)
	return out[:k]
}

// PrecedingJoin evaluates context/preceding. After pruning, the context
// degenerates to the single node with maximum preorder rank (§3.1).
// Every node before c in pre order is either an ancestor of c (at most
// h many) or on the preceding axis, so one scan of [0, c) with an
// ancestor test per node suffices, and c bounds the result.
func PrecedingJoin(d *doc.Document, context []int32, opts *Options) []int32 {
	o := opts.orDefault()
	st := o.Stats
	st.addContext(int64(len(context)))
	c, ok := ReducePreceding(d, context)
	if !ok {
		return nil
	}
	e := o.Emit.cols(d)
	mask, id, kind := e.mask, e.id, e.kind[:c]
	post, bound := d.PostSlice()[:c], d.Post(c)
	out := make([]int32, c)
	k := 0
	if e.name == nil {
		// Nearly every node passes the comparison; which kinds pass the
		// mask is not predictable, so that half is a store and an add.
		for i, p := range post {
			if p < bound {
				out[k] = int32(i)
				k += int(mask >> kind[i] & 1)
			}
		}
	} else {
		for i, nm := range e.name[:c] {
			if nm == id && post[i] < bound && mask>>kind[i]&1 != 0 {
				out[k] = int32(i)
				k++
			}
		}
	}
	st.addScan(1, 0, int64(c), 0, k)
	return out[:k]
}

// MergeOrSelf merges two strictly increasing sequences into their
// strictly increasing union: the '|' merge, and the self side of an
// or-self step where the kernel could not emit it (pushdown, baselines).
// When one side is empty the other is returned as is, not copied.
func MergeOrSelf(result, context []int32) []int32 {
	if len(context) == 0 {
		return result
	}
	if len(result) == 0 {
		return context
	}
	out := make([]int32, len(result)+len(context))
	i, j, k := 0, 0, 0
	for i < len(result) && j < len(context) {
		r, c := result[i], context[j]
		if r <= c {
			i++
		}
		if c <= r {
			j++
		}
		out[k] = min(r, c)
		k++
	}
	k += copy(out[k:], result[i:])
	k += copy(out[k:], context[j:])
	return out[:k]
}
