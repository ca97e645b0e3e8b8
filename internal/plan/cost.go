// Compile-time cardinality estimates for the physical operators, derived
// from document statistics and the tag/kind index's exact per-fragment
// cardinalities. They annotate the plan for EXPLAIN, and a filter's
// input bound picks a climb semijoin's probe direction (semijoin.go);
// they never change results. The bounds follow from the skipping
// analysis of §3.3: a descendant staircase join yields at most its
// fragment, the ancestor join at most h nodes per context node, and a
// fragment join at most the fragment.

package plan

import (
	"staircase/internal/axis"
	"staircase/internal/doc"
)

// estimates are the compile-time cardinality annotations of one
// operator, shown by EXPLAIN: In is the estimated context size flowing
// into the operator, Out its estimated output cardinality.
type estimates struct {
	In, Out int64
}

// estimateStep estimates the output cardinality of an axis step given
// the estimated input cardinality. Fragment cardinalities are exact
// (index-served); everything else is a coarse structural bound — the
// estimates annotate EXPLAIN, they do not gate correctness.
func estimateStep(d *doc.Document, a axis.Axis, fragCard int64, estIn int64) int64 {
	n := int64(d.Size())
	capN := func(v int64) int64 {
		if v > n {
			return n
		}
		return v
	}
	switch a {
	case axis.Descendant, axis.DescendantOrSelf, axis.Following, axis.Preceding:
		if fragCard >= 0 {
			return fragCard
		}
		return n
	case axis.Ancestor, axis.AncestorOrSelf:
		hBound := capN(int64(d.Height()) * maxInt64(estIn, 1))
		if fragCard >= 0 && fragCard < hBound {
			return fragCard
		}
		return hBound
	case axis.Child, axis.FollowingSibling, axis.PrecedingSibling, axis.Attribute:
		return capN(4 * maxInt64(estIn, 1))
	case axis.Parent, axis.Self:
		return maxInt64(estIn, 1)
	case axis.Namespace:
		return 0
	default:
		return n
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
