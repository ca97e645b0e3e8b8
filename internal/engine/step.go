// The pre-plan step interpreter behind Options.LegacyEval, the oracle
// of the plan ≡ legacy differential suite. It runs one staircase
// variant, the basic join (Algorithm 2), and reads no index: every node
// test applies after the join. The live evaluation machinery is
// internal/plan/ops.go; this file stays that simple on purpose.

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
func (e *Engine) evalAxisTest(a axis.Axis, test xpath.NodeTest, context []int32, rep *StepReport) ([]int32, error) {
	switch a {
	case axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding:
		return e.evalPartitioning(a, test, context, rep)
	case axis.DescendantOrSelf, axis.AncestorOrSelf:
		base := axis.Descendant
		if a == axis.AncestorOrSelf {
			base = axis.Ancestor
		}
		nodes, err := e.evalPartitioning(base, test, context, rep)
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
// basic staircase join (Algorithm 2) over the whole document and
// applies the node test after the join; the legacy reads no index.
func (e *Engine) evalPartitioning(a axis.Axis, test xpath.NodeTest, context []int32, rep *StepReport) ([]int32, error) {
	co := &core.Options{Variant: core.NoSkip}
	if rep != nil {
		co.Stats = &rep.Core
	}
	nodes, err := core.Join(e.d, a, context, co)
	if err != nil {
		return nil, err
	}
	return e.filterTest(a, test, nodes), nil
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
