// The greedy ordering pass: statistics-exact reordering of commutable
// work, run after the rewrite rules as the last stage of Compile.
//
// The tag and value indexes expose *exact* fragment cardinalities, so
// there is no estimation problem to solve: the pass ranks the
// commutable filters stacked on one location step (non-positional
// predicates are conjunctive and order-independent) by exact fragment
// count and hoists cheap selective semijoins ahead of expensive
// per-node predicate programs — a greedy order over exact statistics,
// the "when greedy beats optimal" price/performance point. The pass
// also stamps each filter's input bound, from which a climb semijoin
// picks its probe direction (semijoin.go); and when any intermediate
// is provably empty —
// a name test over an absent tag, an empty semijoin fragment — the
// whole branch is replaced by a zero-cardinality EmptyOp and the
// downstream operators never execute.
//
// Ordering decisions are result-invariant and therefore excluded from
// Plan.Canon: the canonical string renders filter chains in source
// order regardless of the evaluation order chosen here, so equivalent
// query spellings keep sharing result-cache and shared-scan entries.
// Options.NoReorder disables the pass (ablation; the differential
// suite pins greedy ≡ left-to-right ≡ legacy).
//
// The order is final: every count the pass ranks on is exact, so there
// is no estimate for execution to correct. A reordered chain executes
// as the operators it rewired: each filter's cursor pulls from the one
// below it, passing its seek hint down and stopping on its own
// exhaustion.

package plan

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"staircase/internal/axis"
)

// reordersTotal counts plan compilations whose greedy pass changed an
// evaluation order (including empty-branch short-circuits); it feeds
// the server's /metrics.
var reordersTotal atomic.Int64

// Reorders returns the process-wide count of greedy ordering decisions
// that changed a plan (plan_reorders_total).
func Reorders() int64 { return reordersTotal.Load() }

// AdaptiveReplans always returns 0: no execution revises the greedy
// order. It stays because the benchmark's plan.replans_per_query layer
// row still reads it.
func AdaptiveReplans() int64 { return 0 }

// emptyOp replaces a branch whose result is provably empty at compile
// time (zero-cardinality fragment on the spine): it emits nothing and
// the wrapped operators never execute. Canon renders through it
// transparently — emptiness is a property of the document binding, not
// of the result the plan identifies.
type emptyOp struct {
	opBase
	inner  op
	reason string
}

func (o *emptyOp) kids() []planNode { return []planNode{o.inner} }

func (o *emptyOp) open(ec *execCtx, _ bool) (cursor, error) {
	ec.ops[o.id].record(0, 0)
	return emptyCursor{}, nil
}

// orderPlan is the greedy ordering pass entry point, run by Compile
// unless Options.NoReorder. Per union branch:
// reorder the commutable filter chains, then short-circuit the branch
// entirely when its spine holds a provably empty intermediate.
func (c *compiler) orderPlan() {
	p := c.p
	wrap := func(b op) op {
		b = c.reorderFrom(b)
		if reason := c.branchEmptyReason(b); reason != "" {
			e := &emptyOp{inner: b, reason: reason}
			add(c, e)
			p.orderNotes = append(p.orderNotes, "empty: "+reason+"; downstream operators skipped")
			reordersTotal.Add(1)
			return e
		}
		return b
	}
	if m, ok := p.root.(*mergeOp); ok {
		for i, b := range m.ins {
			m.ins[i] = wrap(b)
		}
	} else {
		p.root = wrap(p.root)
	}
}

// chainRank ranks a chain member for the greedy sort. Class 0 holds
// semijoins whose fragment the compilation counted exactly (the tag
// index's lists, resident value fragments), ordered by that count
// ascending — smallest certified fragment first. Class 1 holds
// unknown-count semijoins (NoIndex compilations: still set-at-a-time,
// cheaper than per-node work). Class 2 holds per-node predicate
// programs. Ties keep source order (stable sort).
type chainRank struct {
	cls   int
	count int64
	src   int
}

func (c *compiler) rankMember(o op) chainRank {
	r := chainRank{cls: 2, src: asFilter(o).srcOrd}
	if sj, ok := o.(*semiJoinOp); ok {
		r.cls, r.count = 1, sj.frag.count(c.env.Doc, c.opts)
		if r.count >= 0 {
			r.cls = 0
		}
	}
	return r
}

func (r chainRank) less(o chainRank) bool {
	if r.cls != o.cls {
		return r.cls < o.cls
	}
	if r.cls == 0 && r.count != o.count {
		return r.count < o.count
	}
	return r.src < o.src
}

// reorderFrom reorders every commutable filter chain in the subtree
// rooted at o, returning o's replacement (the new chain top when o
// itself headed a chain).
func (c *compiler) reorderFrom(o op) op {
	switch t := o.(type) {
	case *joinOp:
		t.in = c.reorderFrom(t.in)
		return o
	case *axisStepOp:
		t.in = c.reorderFrom(t.in)
		return o
	case *posFilterOp:
		t.in = c.reorderFrom(t.in)
		return o
	case *mergeOp:
		for i := range t.ins {
			t.ins[i] = c.reorderFrom(t.ins[i])
		}
		return o
	}
	// A filter o heads a maximal chain (its consumer is not a filter).
	members, below := filterChain(o)
	if len(members) == 0 {
		return o
	}
	slices.Reverse(members) // into evaluation order (bottom-up)
	return c.orderChain(c.reorderFrom(below), members)
}

// orderChain greedily sorts one chain's members, rewires the operator
// links and re-stamps estimates. members arrive in (source) evaluation
// order; the returned op is the new chain top.
func (c *compiler) orderChain(base op, members []op) op {
	ranks := make(map[op]chainRank, len(members))
	for _, m := range members {
		ranks[m] = c.rankMember(m)
	}
	sorted := append([]op(nil), members...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return ranks[sorted[i]].less(ranks[sorted[j]])
	})

	changed := false
	for i := range sorted {
		if sorted[i] != members[i] {
			changed = true
			break
		}
	}
	if changed {
		reordersTotal.Add(1)
		var labels []string
		for _, m := range sorted {
			labels = append(labels, asFilter(m).label())
		}
		var src []string
		for _, m := range members {
			src = append(src, asFilter(m).label())
		}
		c.p.orderNotes = append(c.p.orderNotes, fmt.Sprintf(
			"step %d: greedy filter order %v (source order %v)",
			asFilter(members[0]).meta.ord, labels, src))
		if c.p.opOrder == nil {
			c.p.opOrder = make(map[int]string)
		}
		for i, m := range sorted {
			if m == members[i] {
				continue
			}
			r := ranks[m]
			note := fmt.Sprintf("eval position %d/%d (source position %d)", i+1, len(sorted), r.src+1)
			if r.cls == 0 {
				note += fmt.Sprintf(", fragment=%d", r.count)
			}
			c.p.opOrder[m.opID()] = note
		}
	}

	// Rewire and re-stamp estimates along the new order. A self, child or
	// attribute climb certifies at most one node per fragment node, so
	// its exact count bounds what it passes on: the bound a later climb's
	// cursor compares its own fragment with.
	in, est := base, filterEst(opEstimate(base))
	for _, m := range sorted {
		f := asFilter(m)
		if sj, ok := m.(*semiJoinOp); ok && sj.certifiesOne() {
			if n := ranks[m].count; n >= 0 && n < est.Out {
				est.Out = n
			}
		}
		f.in, f.est = in, est
		in, est = m, filterEst(est.Out)
	}
	return in
}

// branchEmptyReason walks a branch's spine looking for a provably
// empty intermediate — an exact zero-cardinality fragment that forces
// every operator above it to emit nothing — and returns a description,
// or "" when the branch cannot be short-circuited. Soundness: every
// non-first-step operator's output is a function of its input that
// maps an empty sequence to an empty sequence, and first-step
// (document-node) operators sit below everything else on the spine, so
// emptiness anywhere on the spine forces an empty branch result.
// Attribute-axis steps are never judged by element fragments (the tag
// index counts elements only).
func (c *compiler) branchEmptyReason(o op) string {
	for o != nil {
		switch t := o.(type) {
		case *joinOp:
			// Partitioning-axis output passes the node test; an exact
			// zero-cardinality fragment means no document node does.
			if t.frag != nil && t.frag.card == 0 {
				return fmt.Sprintf("step %d (%s) matches no document node", t.meta.ord, t.meta.display)
			}
			o = t.in
		case *axisStepOp:
			if t.a != axis.Attribute && c.fragCard(t.test) == 0 {
				return fmt.Sprintf("step %d (%s) matches no document node", t.meta.ord, t.meta.display)
			}
			o = t.in
		case *posFilterOp:
			if t.step.Axis != axis.Attribute && c.fragCard(t.step.Test) == 0 {
				return fmt.Sprintf("step %d (%s) matches no document node", t.meta.ord, t.meta.display)
			}
			o = t.in
		case *semiJoinOp:
			if t.frag.count(c.env.Doc, c.opts) == 0 {
				return fmt.Sprintf("step %d predicate %s has an empty fragment", t.meta.ord, t.label())
			}
			o = t.in
		case *predFilterOp:
			o = t.in
		default:
			return ""
		}
	}
	return ""
}
