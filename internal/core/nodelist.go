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

// A node list is its test's fragment: every entry already passes the
// step's node test, and none is an attribute (tag lists hold elements,
// kind lists non-elements). The kernels therefore apply no test: they
// copy list entries, and Options.Emit is ignored.

// JoinNodeList evaluates an axis step along a partitioning axis against
// a pre-sorted node list instead of the whole document. The result is
// the intersection of the usual staircase join result with the list.
// It runs the axis's list cursor (cursor_list.go) once at an unbounded
// window. An ancestor join hands it the raw context, which it prunes as
// it scans, into a pooled scratch sized with no pass — the list entries
// before the last context node, at most h per context node — and
// returns an exact copy, as Join does: the chains fill little of the
// range. The other joins allocate the list range the staircase spans,
// capped by the document bound, as their result, which they nearly
// fill.
func JoinNodeList(d *doc.Document, a axis.Axis, list, context []int32, opts *Options) ([]int32, error) {
	o := opts.orDefault()
	switch a {
	case axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding:
	default:
		return nil, errNonPartitioning(a)
	}
	if len(context) == 0 || len(list) == 0 {
		return nil, nil // an empty list leaves the context unread, as its cursor does
	}
	var out, res []int32
	switch a {
	case axis.Descendant:
		stair := PruneDescendant(d, context)
		li := searchList(list, stair[0]+1)
		last := stair[len(stair)-1]
		size, docBound := searchFrom(list, li, last+1+d.SubtreeSize(last))-li, 0
		for _, c := range stair {
			if docBound += int(d.SubtreeSize(c)); docBound >= size {
				break
			}
		}
		out = make([]int32, 0, min(size, docBound))
		c := descListCursor{kernel: o.holding(d, nil, stair, len(context)), list: list}
		res, _ = c.next(out, unbounded, 0)
	case axis.Ancestor:
		size := min(searchList(list, context[len(context)-1]), len(context)*int(d.Height()))
		buf := scratchPool.Get().(*[]int32)
		c := ancListCursor{kernel: o.holding(d, context, nil, len(context)), list: list}
		res, _ = c.next(grow(buf, size), unbounded, 0)
		return exact(buf, res), nil
	case axis.Following:
		i := minPostAt(d, context)
		f := context[i]
		from := searchList(list, f+1+d.SubtreeSize(f))
		out = make([]int32, 0, len(list)-from)
		c := folListCursor{kernel: o.holding(d, context[i:i+1], nil, len(context)), list: list, li: from}
		res, _ = c.next(out, unbounded, 0)
	case axis.Preceding:
		out = make([]int32, 0, searchList(list, context[len(context)-1]))
		c := precListCursor{kernel: o.holding(d, context[len(context)-1:], nil, len(context)), list: list}
		res, _ = c.next(out, unbounded, 0)
	}
	return out[:len(res)], nil
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
// O(|context| + |list|) however the partitions fall. A search that does
// not move — most partition boundaries of a sparse list — is inlined.
func searchFrom(list []int32, lo int, pre int32) int {
	if lo < len(list) && list[lo] < pre {
		return gallop(list, lo, pre)
	}
	return lo
}

func gallop(list []int32, lo int, pre int32) int {
	hi := lo
	for step := 1; hi < len(list) && list[hi] < pre; step <<= 1 {
		lo = hi + 1
		hi += step
	}
	hi = min(hi, len(list))
	return lo + searchList(list[lo:hi], pre)
}

// SubtreeNodeList computes c/descendant-or-self ∩ list, the list entries
// in [c, c + |subtree(c)|], with two binary searches: the result is a
// subslice of list, not a copy, so the caller must not write to it (its
// capacity ends with it, so an append copies). It counts the entries the
// searches compared as scanned and the rest of the list as skipped; a
// caller that copies the span charges the copy (Stats.AddCopy).
func SubtreeNodeList(d *doc.Document, list []int32, c int32, opts *Options) []int32 {
	o := opts.orDefault()
	o.Stats.addContext(1)
	if len(list) == 0 {
		return nil
	}
	lo, n := probeList(list, 0, c+1)
	hi, m := probeList(list, lo, c+1+d.SubtreeSize(c))
	k := min(n+m, int64(len(list))) // the entries compared, some twice
	o.Stats.addScan(1, 0, k, int64(len(list))-k, hi-lo)
	// The search for c+1 compared list[lo-1].
	if lo > 0 && list[lo-1] == c {
		lo--
	}
	return list[lo:hi:hi]
}

// probeList is searchList over list[lo:], returning the index into list
// and the number of entries it compared.
func probeList(list []int32, lo int, pre int32) (int, int64) {
	n, hi := int64(0), len(list)
	for ; lo < hi; n++ {
		m := int(uint(lo+hi) >> 1)
		if list[m] < pre {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, n
}
