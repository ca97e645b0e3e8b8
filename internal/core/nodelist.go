package core

import (
	"staircase/internal/axis"
	"staircase/internal/doc"
)

// This file implements the staircase join over a *node list*: a
// pre-sorted subset of the document (e.g. all elements with a given tag
// name). This is the machinery behind the paper's name-test pushdown
// (§4.4, Experiment 3):
//
//	nametest(staircasejoin_anc(doc, cs), n)
//	  = staircasejoin_anc(nametest(doc, n), cs)
//
// "The tree properties used by the staircase join are entirely based on
// preorder and postorder ranks. Those properties remain valid for a
// subset of nodes." In particular, the skipping argument still holds:
// the first list node outside the boundary of context node c follows c
// in document order, so no later list node in the partition can be a
// descendant of c.

// JoinNodeList evaluates an axis step along a partitioning axis against
// a pre-sorted node list instead of the whole document. The result is
// the intersection of the usual staircase join result with the list.
func JoinNodeList(d *doc.Document, a axis.Axis, list, context []int32, opts *Options) ([]int32, error) {
	switch a {
	case axis.Descendant:
		return DescendantJoinNodeList(d, list, context, opts), nil
	case axis.Ancestor:
		return AncestorJoinNodeList(d, list, context, opts), nil
	case axis.Following:
		return FollowingJoinNodeList(d, list, context, opts), nil
	case axis.Preceding:
		return PrecedingJoinNodeList(d, list, context, opts), nil
	default:
		return nil, errNonPartitioning(a)
	}
}

func errNonPartitioning(a axis.Axis) error {
	return &nonPartitioningError{a}
}

type nonPartitioningError struct{ a axis.Axis }

func (e *nonPartitioningError) Error() string {
	return "core: staircase join does not handle axis " + e.a.String()
}

// searchList returns the smallest index i with list[i] >= pre.
func searchList(list []int32, pre int32) int {
	lo, hi := 0, len(list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if list[m] < pre {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// searchFrom returns the smallest index i >= lo with list[i] >= pre
// (len(list) if there is none), galloping: an exponential probe from lo
// brackets the answer, a binary search of the bracket finds it. One hop
// costs O(log distance), so a sweep that only moves forward costs
// O(|context| + |list|) however the partitions fall.
func searchFrom(list []int32, lo int, pre int32) int {
	hi := lo
	for step := 1; hi < len(list) && list[hi] < pre; step <<= 1 {
		lo = hi + 1
		hi += step
	}
	hi = min(hi, len(list))
	return lo + searchList(list[lo:hi], pre)
}

// DescendantJoinNodeList computes context/descendant ∩ list. The result
// is sized once: it lies in the list range the staircase spans and holds
// at most Σ |descendant(c)| nodes (Equation (1)).
func DescendantJoinNodeList(d *doc.Document, list, context []int32, opts *Options) []int32 {
	o := opts.orDefault()
	st := o.Stats
	st.addContext(int64(len(context)))
	if len(context) == 0 || len(list) == 0 {
		return nil
	}
	if !o.AssumePruned {
		context = PruneDescendant(d, context)
	}
	post := d.PostSlice()
	e := o.Emit.cols(d)
	mask, id, kind, name := e.mask, e.id, e.kind, e.name

	li := searchList(list, context[0]+1)
	lastCtx := context[len(context)-1]
	size, docBound := searchFrom(list, li, lastCtx+1+d.SubtreeSize(lastCtx))-li, 0
	for _, c := range context {
		if docBound += int(d.SubtreeSize(c)); docBound >= size {
			break
		}
	}
	out := make([]int32, min(size, docBound))
	k := 0
	var copied, compared, skipped int64
	for i, c := range context {
		// Partition of c in the list: entries with pre > c, up to the
		// next context node.
		li = searchFrom(list, li, c+1)
		end := len(list)
		if i+1 < len(context) {
			end = searchFrom(list, li, context[i+1])
		}
		bound := post[c]
		j := li
		if o.Variant == SkipEstimate {
			// Copy phase on the list: all entries with pre <= post(c)
			// are guaranteed descendants of c (Equation (1) lower bound).
			guarantee := searchFrom(list[:end], j, bound+1)
			for ; j < guarantee; j++ {
				if v := list[j]; mask>>kind[v]&1 != 0 && (name == nil || name[v] == id) {
					out[k] = v
					k++
				}
			}
			copied += int64(guarantee - li)
		}
		from := j
		for ; j < end; j++ {
			v := list[j]
			if post[v] >= bound {
				if o.Variant != NoSkip {
					break
				}
			} else if mask>>kind[v]&1 != 0 && (name == nil || name[v] == id) {
				out[k] = v
				k++
			}
		}
		compared += int64(j - from)
		if j < end {
			compared++ // the breaking entry was compared too
			skipped += int64(end - j - 1)
		}
		li = end
	}
	st.addScan(len(context), copied, compared, skipped, k)
	return out[:k]
}

// AncestorJoinNodeList computes context/ancestor ∩ list. The result is
// sized once: it lies in the list prefix before the last context node
// and holds at most as many nodes as the document join's would.
func AncestorJoinNodeList(d *doc.Document, list, context []int32, opts *Options) []int32 {
	o := opts.orDefault()
	st := o.Stats
	st.addContext(int64(len(context)))
	if len(context) == 0 || len(list) == 0 {
		return nil
	}
	if !o.AssumePruned {
		context = PruneAncestor(d, context)
	}
	post, level := d.PostSlice(), d.LevelSlice()
	e := o.Emit.cols(d)
	mask, id, kind, name := e.mask, e.id, e.kind, e.name

	size, docBound, from := searchList(list, context[len(context)-1]), 0, int32(0)
	for _, c := range context {
		if docBound += int(max(min(level[c], c-from), 0)); docBound >= size {
			break
		}
		from = c + 1
	}
	out := make([]int32, min(size, docBound))
	k, li := 0, 0
	var compared, skipped int64
	for _, c := range context {
		end := searchFrom(list, li, c) // partition: list entries with pre < c
		bound := post[c]
		for j := li; j < end; {
			v := list[j]
			compared++
			if post[v] > bound {
				if mask>>kind[v]&1 != 0 && (name == nil || name[v] == id) {
					out[k] = v
					k++
				}
				j++
				continue
			}
			if o.Variant == NoSkip {
				j++
				continue
			}
			// v and its descendants precede c: gallop past v's subtree
			// within the list.
			next := searchFrom(list[:end], j+1, v+1+d.SubtreeSize(v))
			skipped += int64(next - j - 1)
			j = next
		}
		li = end
	}
	st.addScan(len(context), 0, compared, skipped, k)
	return out[:k]
}

// FollowingJoinNodeList computes context/following ∩ list: the list
// suffix beyond the subtree of the minimum-post context node.
func FollowingJoinNodeList(d *doc.Document, list, context []int32, opts *Options) []int32 {
	o := opts.orDefault()
	o.Stats.addContext(int64(len(context)))
	c, ok := ReduceFollowing(d, context)
	if !ok || len(list) == 0 {
		return nil
	}
	e := o.Emit.cols(d)
	from := searchList(list, c+1+d.SubtreeSize(c))
	out := make([]int32, len(list)-from)
	k := 0
	for _, v := range list[from:] {
		if e.pass(v) {
			out[k] = v
			k++
		}
	}
	o.Stats.addScan(1, int64(len(list)-from), 0, 0, k)
	return out[:k]
}

// PrecedingJoinNodeList computes context/preceding ∩ list: list entries
// before the maximum-pre context node, minus its ancestors.
func PrecedingJoinNodeList(d *doc.Document, list, context []int32, opts *Options) []int32 {
	o := opts.orDefault()
	o.Stats.addContext(int64(len(context)))
	c, ok := ReducePreceding(d, context)
	if !ok || len(list) == 0 {
		return nil
	}
	post, bound := d.PostSlice(), d.Post(c)
	e := o.Emit.cols(d)
	end := searchList(list, c)
	out := make([]int32, end)
	k := 0
	for _, v := range list[:end] {
		if post[v] < bound && e.pass(v) {
			out[k] = v
			k++
		}
	}
	o.Stats.addScan(1, 0, int64(end), 0, k)
	return out[:k]
}
