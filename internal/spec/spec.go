// Package spec is the reference evaluator the tests compare the system
// against. It answers every location step by brute force from the
// pre/post region predicates of internal/axis: for each context node it
// tests every node of the document with axis.In, applies the node test
// and the predicates literally, then sorts and deduplicates. That costs
// O(|context| · n) per step — exactly the tree-unaware evaluation the
// staircase join avoids — and shares no code with the kernels, the
// planner or the indexes, so it is obviously right rather than fast.
// Only tests import it.
package spec

import (
	"slices"
	"strings"

	"staircase/internal/axis"
	"staircase/internal/doc"
	"staircase/internal/xpath"
)

// Join returns every node on axis a of any context node, in document
// order and duplicate-free: the specification of one staircase join.
func Join(d *doc.Document, a axis.Axis, context []int32) []int32 {
	var out []int32
	for v := int32(0); int(v) < d.Size(); v++ {
		for _, c := range context {
			if axis.In(d, a, c, v) {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// EvalQuery evaluates a union of paths: each branch from the same
// context, the node sets merged into document order without duplicates.
func EvalQuery(d *doc.Document, q xpath.Query, context []int32) []int32 {
	var out []int32
	for _, p := range q.Paths {
		out = append(out, Eval(d, p, context)...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Eval evaluates one location path from a context sequence (absolute
// paths start at the root). The first step of an absolute path over a
// document whose root is an element gets document-node semantics, the
// convention the engine documents: the encoding has no node above the
// root element.
func Eval(d *doc.Document, p xpath.Path, context []int32) []int32 {
	cur := context
	if p.Absolute {
		cur = []int32{d.Root()}
	}
	for i, step := range p.Steps {
		if i == 0 && p.Absolute && d.KindOf(d.Root()) != doc.VRoot {
			cur = docRootStep(d, step)
			continue
		}
		cur = evalStep(d, step, cur)
	}
	return cur
}

// docRootStep evaluates the first step of an absolute path from the
// implicit document node: its only child is the root element, its
// descendants are every non-attribute node, and self or
// ancestor-or-self::node() stands in for it with the root element.
func docRootStep(d *doc.Document, step xpath.Step) []int32 {
	var nodes []int32
	switch step.Axis {
	case axis.Child:
		if Test(d, step.Axis, step.Test, d.Root()) {
			nodes = []int32{d.Root()}
		}
	case axis.Descendant, axis.DescendantOrSelf:
		for v := int32(0); int(v) < d.Size(); v++ {
			if d.KindOf(v) != doc.Attr && Test(d, step.Axis, step.Test, v) {
				nodes = append(nodes, v)
			}
		}
	case axis.Self, axis.AncestorOrSelf:
		if step.Test.Kind == xpath.TestNode {
			nodes = []int32{d.Root()}
		}
	}
	for _, pred := range step.Preds {
		var kept []int32
		for i, v := range nodes {
			if holds(d, v, pred, i+1, len(nodes)) {
				kept = append(kept, v)
			}
		}
		nodes = kept
	}
	return nodes
}

// evalStep evaluates one step context node by context node, with
// proximity positions counted in axis order (backwards on reverse
// axes).
func evalStep(d *doc.Document, step xpath.Step, context []int32) []int32 {
	var all []int32
	for _, c := range context {
		var nodes []int32
		for v := int32(0); int(v) < d.Size(); v++ {
			if axis.In(d, step.Axis, c, v) && Test(d, step.Axis, step.Test, v) {
				nodes = append(nodes, v)
			}
		}
		if step.Axis.Reverse() {
			slices.Reverse(nodes)
		}
		for _, pred := range step.Preds {
			var kept []int32
			for i, v := range nodes {
				if holds(d, v, pred, i+1, len(nodes)) {
					kept = append(kept, v)
				}
			}
			nodes = kept
		}
		all = append(all, nodes...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// Test decides a node test for node v on axis a: the axis's principal
// node kind (attributes on the attribute axis, elements elsewhere) for
// names and '*', and no attribute on any other axis.
func Test(d *doc.Document, a axis.Axis, test xpath.NodeTest, v int32) bool {
	principal := doc.Elem
	if a == axis.Attribute {
		principal = doc.Attr
	}
	k := d.KindOf(v)
	if !axis.KindOK(a, k) {
		return false
	}
	switch test.Kind {
	case xpath.TestName:
		return k == principal && d.Name(v) == test.Name
	case xpath.TestAny:
		return k == principal
	case xpath.TestNode:
		return true
	case xpath.TestText:
		return k == doc.Text
	case xpath.TestComment:
		return k == doc.Comment
	case xpath.TestPI:
		return k == doc.PI && (test.Name == "" || d.Name(v) == test.Name)
	}
	return false
}

// holds decides a predicate for node v at proximity position pos of a
// sequence of size nodes.
func holds(d *doc.Document, v int32, pred xpath.Predicate, pos, size int) bool {
	switch p := pred.(type) {
	case xpath.Position:
		return pos == p.N
	case xpath.Last:
		return pos == size
	case xpath.Exists:
		return len(Eval(d, p.Path, []int32{v})) > 0
	case xpath.Compare:
		for _, n := range Eval(d, p.Path, []int32{v}) {
			if xpath.CompareValue(d.StringValue(n), p.Op, p.Literal, p.Numeric) {
				return true
			}
		}
		return false
	case xpath.Contains:
		for _, n := range Eval(d, p.Path, []int32{v}) {
			if strings.Contains(d.StringValue(n), p.Literal) {
				return true
			}
		}
		return false
	case xpath.Not:
		return !holds(d, v, p.Inner, pos, size)
	case xpath.And:
		for _, q := range p.Preds {
			if !holds(d, v, q, pos, size) {
				return false
			}
		}
		return true
	case xpath.Or:
		for _, q := range p.Preds {
			if holds(d, v, q, pos, size) {
				return true
			}
		}
		return false
	}
	return false
}
