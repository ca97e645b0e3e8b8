// FROZEN LEGACY COPY — the pre-plan step interpreter, kept verbatim
// behind Options.LegacyEval as the oracle of the plan ≡ legacy
// differential suite. The live evaluation machinery is
// internal/plan/ops.go; do not evolve this file.

package engine

import (
	"fmt"
	"sort"

	"staircase/internal/axis"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/xpath"
)

// evalAxisTest evaluates axis::nodetest for the whole context.
func (e *Engine) evalAxisTest(a axis.Axis, test xpath.NodeTest, context []int32, opts *Options, rep *StepReport) ([]int32, error) {
	switch a {
	case axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding:
		return e.evalPartitioning(a, test, context, opts, rep)
	case axis.DescendantOrSelf, axis.AncestorOrSelf:
		base := axis.Descendant
		if a == axis.AncestorOrSelf {
			base = axis.Ancestor
		}
		nodes, err := e.evalPartitioning(base, test, context, opts, rep)
		if err != nil {
			return nil, err
		}
		selfPart := e.filterTest(a, test, append([]int32(nil), context...))
		return core.MergeOrSelf(nodes, selfPart), nil
	case axis.Child:
		var out []int32
		for _, c := range context {
			out = append(out, e.d.Children(c)...)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return e.filterTest(a, test, out), nil
	case axis.Parent:
		var out []int32
		for _, c := range context {
			if p := e.d.Parent(c); p != doc.NoParent {
				out = append(out, p)
			}
		}
		out = sortDedup(out)
		return e.filterTest(a, test, out), nil
	case axis.Self:
		return e.filterTest(a, test, append([]int32(nil), context...)), nil
	case axis.Attribute:
		var out []int32
		for _, c := range context {
			out = append(out, e.d.Attributes(c)...)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return e.filterTest(a, test, out), nil
	case axis.FollowingSibling:
		var out []int32
		for _, c := range context {
			for s := e.d.FollowingSibling(c); s != -1; s = e.d.FollowingSibling(s) {
				out = append(out, s)
			}
		}
		out = sortDedup(out)
		return e.filterTest(a, test, out), nil
	case axis.PrecedingSibling:
		var out []int32
		for _, c := range context {
			p := e.d.Parent(c)
			if p == doc.NoParent {
				continue
			}
			for _, s := range e.d.Children(p) {
				if s >= c {
					break
				}
				out = append(out, s)
			}
		}
		out = sortDedup(out)
		return e.filterTest(a, test, out), nil
	case axis.Namespace:
		return nil, nil
	default:
		return nil, fmt.Errorf("engine: unsupported axis %v", a)
	}
}

// evalPartitioning evaluates one of the four partitioning axes with the
// configured strategy, applying the name test before or after the join.
func (e *Engine) evalPartitioning(a axis.Axis, test xpath.NodeTest, context []int32, opts *Options, rep *StepReport) ([]int32, error) {
	switch opts.Strategy {
	case Staircase, StaircaseSkip, StaircaseNoSkip:
		co := &core.Options{Variant: coreVariant(opts.Strategy)}
		if rep != nil {
			co.Stats = &rep.Core
		}
		bound := e.estimateJoinTouches(a, context)
		if opts.Pushdown != PushNever {
			if list, indexed, ok := e.pushdownList(test, opts); ok &&
				shouldPush(int64(len(list)), bound, opts.Pushdown) {
				if len(list) == 0 {
					return nil, nil // tag/kind absent: empty result
				}
				if rep != nil {
					rep.Pushed = true
					rep.Indexed = indexed
				}
				return core.JoinNodeList(e.d, a, list, context, co)
			}
		}
		nodes, err := core.Join(e.d, a, context, co)
		if err != nil {
			return nil, err
		}
		return e.filterTest(a, test, nodes), nil
	default:
		return nil, fmt.Errorf("engine: unknown strategy %v", opts.Strategy)
	}
}

// coreVariant maps engine strategies to staircase join variants.
func coreVariant(s Strategy) core.Variant {
	switch s {
	case StaircaseNoSkip:
		return core.NoSkip
	case StaircaseSkip:
		return core.Skip
	default:
		return core.SkipEstimate
	}
}

// pushdownList resolves the fragment node list for a pushable node
// test — the nametest(doc, n) (or kind-test) operand of the §4.4
// rewrite. Name tests map to the tag list of the interned name; the
// non-element kind tests text(), comment() and processing-instruction()
// map to the kind lists the index keeps alongside. With the shared
// index the list is a slice fetch with exact cardinality and pre span;
// with Options.NoIndex it is rebuilt by an O(n) column scan (and an
// absent tag yields an empty list, making the step trivially empty).
// ok is false for tests that cannot be pushed (*, node(), and named
// processing instructions, which would need a kind∩name list).
func (e *Engine) pushdownList(test xpath.NodeTest, opts *Options) (list []int32, indexed, ok bool) {
	switch test.Kind {
	case xpath.TestName:
		id, found := e.d.Names().Lookup(test.Name)
		if !found {
			return nil, !opts.NoIndex, true // absent tag: empty fragment
		}
		if opts.NoIndex {
			return e.scanTagList(id), false, true
		}
		return e.d.TagIndex().Tag(id), true, true
	case xpath.TestText:
		return e.kindFragment(doc.Text, opts)
	case xpath.TestComment:
		return e.kindFragment(doc.Comment, opts)
	case xpath.TestPI:
		if test.Name != "" {
			return nil, false, false
		}
		return e.kindFragment(doc.PI, opts)
	default:
		return nil, false, false
	}
}

// kindFragment serves a non-element kind list from the index or by
// scan.
func (e *Engine) kindFragment(k doc.Kind, opts *Options) (list []int32, indexed, ok bool) {
	if opts.NoIndex {
		return e.scanKindList(k), false, true
	}
	return e.d.TagIndex().KindList(uint8(k)), true, true
}

// filterTest filters nodes by the node test in place (the slice is
// reused) and returns the filtered prefix.
func (e *Engine) filterTest(a axis.Axis, test xpath.NodeTest, nodes []int32) []int32 {
	principal := doc.Elem
	if a == axis.Attribute {
		principal = doc.Attr
	}
	out := nodes[:0]
	for _, v := range nodes {
		k := e.d.KindOf(v)
		// Axis-level kind filtering for axes evaluated outside the
		// staircase join (child, self, siblings): attributes appear
		// only on the attribute axis.
		if a != axis.Attribute && k == doc.Attr {
			continue
		}
		switch test.Kind {
		case xpath.TestName:
			if k == principal && e.d.Name(v) == test.Name {
				out = append(out, v)
			}
		case xpath.TestAny:
			if k == principal {
				out = append(out, v)
			}
		case xpath.TestNode:
			out = append(out, v)
		case xpath.TestText:
			if k == doc.Text {
				out = append(out, v)
			}
		case xpath.TestComment:
			if k == doc.Comment {
				out = append(out, v)
			}
		case xpath.TestPI:
			if k == doc.PI && (test.Name == "" || e.d.Name(v) == test.Name) {
				out = append(out, v)
			}
		}
	}
	return out
}

// sortDedup sorts a pre-rank slice and removes duplicates in place.
func sortDedup(nodes []int32) []int32 {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	out := nodes[:0]
	for i, v := range nodes {
		if i > 0 && v == nodes[i-1] {
			continue
		}
		out = append(out, v)
	}
	return out
}
