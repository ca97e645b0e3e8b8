package engine

import (
	"staircase/internal/axis"
)

// FROZEN LEGACY COPY — the live cost model lives in internal/plan
// (cost.go); these duplicates exist only so the Options.LegacyEval
// oracle path stays bit-for-bit what the plan compiler was verified
// against. Do not evolve them: change internal/plan and let the
// differential suite (plan_equiv_test.go) catch any drift. They go
// away with LegacyEval.
//
// Cost model for name-test pushdown (the paper's §6: "Further research
// goes in the direction of a cost model to be able to intelligently
// choose between name/node test pushdown and related XPath rewriting
// laws"). The model compares upper bounds on the nodes each plan
// touches; both bounds follow from the skipping analysis of §3.3:
//
//	no pushdown:  the descendant staircase join touches at most
//	              |result| + |context| nodes; |result| is bounded by
//	              Σ |subtree(c)| (Equation (1), O(|context|) to compute).
//	              The ancestor join touches at most h·|context| result
//	              nodes plus one probe per skipped sibling subtree.
//	              Following/preceding degenerate to a single region copy.
//	              Afterwards the name test filters the result.
//
//	pushdown:     the join over the tag fragment touches at most
//	              min(fragment size, the same result bound) entries,
//	              plus O(log) binary searches per partition.
//
// Pushdown wins when the fragment is smaller than the expected axis
// result — "selective name tests only", quantified.

// estimateJoinTouches bounds the nodes a staircase join over the full
// document touches for the given axis and context. An empty context
// touches nothing on any axis.
func (e *Engine) estimateJoinTouches(a axis.Axis, context []int32) int64 {
	if len(context) == 0 {
		return 0
	}
	d := e.d
	n := int64(d.Size())
	k := int64(len(context))
	switch a {
	case axis.Descendant:
		var sum int64
		for _, c := range context {
			sum += int64(d.SubtreeSize(c))
			if sum >= n {
				return n
			}
		}
		return sum + k
	case axis.Ancestor:
		// Result is at most h per context node; skipping probes one
		// node per jumped subtree, bounded by the pre rank of the last
		// context node. Use the optimistic result bound plus a probe
		// allowance.
		bound := int64(d.Height())*k + 2*k
		if last := int64(context[len(context)-1]); last < bound {
			return last
		}
		return bound
	case axis.Following:
		c, _ := coreReduceFollowing(e, context)
		return n - int64(c)
	case axis.Preceding:
		return int64(context[len(context)-1])
	default:
		return n
	}
}

// coreReduceFollowing picks the minimum-post context node (kept local
// to avoid exporting more of core's internals into the cost model).
func coreReduceFollowing(e *Engine, context []int32) (int32, bool) {
	post := e.d.PostSlice()
	if len(context) == 0 {
		return 0, false
	}
	best := context[0]
	for _, c := range context[1:] {
		if post[c] < post[best] {
			best = c
		}
	}
	return best, true
}

// shouldPush decides node-test pushdown: forced by PushAlways/PushNever,
// otherwise the cost model pushes when the fragment (the tag or kind
// node list) is smaller than `bound`, the estimateJoinTouches bound on
// what the full join would touch. The fragment cardinality is exact —
// the shared tag/kind index keeps per-list counts, so the decision reads
// a length instead of scanning the name column.
func shouldPush(fragment, bound int64, mode Pushdown) bool {
	switch mode {
	case PushAlways:
		return true
	case PushNever:
		return false
	default:
		return fragment < bound
	}
}
