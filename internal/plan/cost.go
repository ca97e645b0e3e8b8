// Cost model for the physical operators (the paper's §6: "Further
// research goes in the direction of a cost model to be able to
// intelligently choose between name/node test pushdown and related
// XPath rewriting laws"). Two kinds of quantities live here:
//
//   - execution-time bounds computed from the *actual* context
//     sequence an operator receives (estimateJoinTouches,
//     costPushdown, parallelWorkersFor). These drive the pushdown and
//     parallel-fan-out decisions inside StaircaseJoin, exactly as the
//     step interpreter decided them, so plan-based execution makes
//     identical choices;
//   - compile-time estimates derived from document statistics and the
//     tag/kind index's exact per-fragment cardinalities (estimate*).
//     These annotate the plan for EXPLAIN and would drive plan-level
//     reordering; they never change results.
//
// Both bound families follow from the skipping analysis of §3.3: a
// descendant staircase join touches at most |result| + |context|
// nodes, the ancestor join at most h·|context| plus one probe per
// skipped sibling subtree, following/preceding degenerate to a single
// region copy, and a fragment join touches at most the fragment.

package plan

import (
	"runtime"

	"staircase/internal/axis"
	"staircase/internal/doc"
)

// estimateJoinTouches bounds the nodes a staircase join over the full
// document touches for the given axis and actual context. An empty
// context touches nothing on any axis.
func estimateJoinTouches(d *doc.Document, a axis.Axis, context []int32) int64 {
	if len(context) == 0 {
		return 0
	}
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
		post := d.PostSlice()
		best := context[0]
		for _, c := range context[1:] {
			if post[c] < post[best] {
				best = c
			}
		}
		return n - int64(best)
	case axis.Preceding:
		return int64(context[len(context)-1])
	default:
		return n
	}
}

// costPushdown decides node-test pushdown: push when the fragment (the
// tag or kind node list) is smaller than `bound`, the
// estimateJoinTouches bound on what the full join would touch. The
// full join runs partition-parallel when the caller requested workers,
// so the comparison uses the *per-worker* scan bound.
func costPushdown(fragment, bound int64, workers int) bool {
	if workers < 1 {
		workers = 1
	}
	return fragment < bound/int64(workers)
}

// shouldPush decides node-test pushdown: forced by PushAlways/
// PushNever, otherwise delegated to the cost model.
func shouldPush(fragment, bound int64, mode Pushdown, workers int) bool {
	switch mode {
	case PushAlways:
		return true
	case PushNever:
		return false
	default:
		return costPushdown(fragment, bound, workers)
	}
}

// minParallelWork is the minimum estimated number of touched nodes per
// worker before the cost model lets a staircase join fan out: below
// it, goroutine spawn and per-worker result concatenation dominate the
// scan itself.
const minParallelWork = 1 << 11

// parallelWorkersFor resolves the requested Options.Parallelism into
// the worker count for one axis step whose estimateJoinTouches bound
// is `bound`: negative requests map to GOMAXPROCS, and the result is
// clamped so every worker gets at least minParallelWork estimated
// touched nodes.
func parallelWorkersFor(opts *Options, bound int64) int {
	w := opts.Parallelism
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w <= 1 {
		return 1
	}
	if maxW := bound / minParallelWork; int64(w) > maxW {
		w = int(maxW)
	}
	if w < 1 {
		return 1
	}
	return w
}

// estimates are the compile-time cardinality annotations of one
// operator, shown by EXPLAIN. In is the estimated context size flowing
// into the operator, Out its estimated output cardinality, and Bound
// (join operators only) the static full-join touch bound the pushdown
// comparison would use from a root-sized context.
type estimates struct {
	In, Out, Bound int64
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
