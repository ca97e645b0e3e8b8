// Package spec is the reference evaluator: the tests compare the system
// against it, and Options.LegacyEval — the benchmark's oracle — answers
// with it. It reads the pre/post plane of internal/doc and nothing else:
// no kernel, planner or index, so it shares no code with the system and
// is obviously right rather than fast. It reports no per-step
// statistics.
//
// Join is the definition of one location step: for each context node it
// tests every node of the document with axis.In, which costs
// O(|context| · n). Region computes the same set in one pass: Figure 2
// makes every axis a region of the plane, and the union of one axis's
// regions over a whole context is a single sweep that keeps the smallest
// or largest post rank read so far. Eval runs each step with Region and
// applies the node test and the predicates literally.
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

// Region returns exactly Join(d, a, context), the context in any order,
// with one pass per step instead of one per context node.
func Region(d *doc.Document, a axis.Axis, context []int32) []int32 {
	ctx := ordered(slices.Clone(context))
	if len(ctx) == 0 {
		return nil
	}
	var out []int32
	switch a {
	case axis.Descendant, axis.DescendantOrSelf:
		// v is below a context node iff one before it has a larger post
		// rank; no node after the last context subtree ends (Equation 1)
		// is.
		end := int32(0)
		for _, c := range ctx {
			end = max(end, c+d.SubtreeSize(c))
		}
		maxPost, i := int32(-1), 0
		for v := ctx[0]; v <= end; v++ {
			self := i < len(ctx) && ctx[i] == v
			if d.Post(v) < maxPost || self && a == axis.DescendantOrSelf {
				out = append(out, v)
			}
			if self {
				maxPost = max(maxPost, d.Post(v))
				i++
			}
		}
	case axis.Following:
		// v follows a context node iff one before it has a smaller post
		// rank.
		minPost, i := int32(d.Size()), 0
		for v := ctx[0]; int(v) < d.Size(); v++ {
			if d.Post(v) > minPost {
				out = append(out, v)
			}
			if i < len(ctx) && ctx[i] == v {
				minPost = min(minPost, d.Post(v))
				i++
			}
		}
	case axis.Preceding:
		// v precedes a context node iff one after it has a larger post
		// rank: the same sweep, in reverse document order.
		maxPost, i := int32(-1), len(ctx)-1
		for v := ctx[i]; v >= 0; v-- {
			if d.Post(v) < maxPost {
				out = append(out, v)
			}
			if i >= 0 && ctx[i] == v {
				maxPost = max(maxPost, d.Post(v))
				i--
			}
		}
		slices.Reverse(out)
	case axis.Ancestor, axis.AncestorOrSelf:
		// Each parent chain stops at a node an earlier chain marked: that
		// chain went on to the root.
		seen := map[int32]bool{}
		for _, c := range ctx {
			if a == axis.AncestorOrSelf {
				out = append(out, c)
			}
			for p := d.Parent(c); p != doc.NoParent && !seen[p]; p = d.Parent(p) {
				seen[p] = true
				out = append(out, p)
			}
		}
	case axis.Child:
		for _, c := range ctx {
			out = append(out, d.Children(c)...)
		}
	case axis.Attribute:
		for _, c := range ctx {
			out = append(out, d.Attributes(c)...)
		}
	case axis.Parent:
		for _, c := range ctx {
			if p := d.Parent(c); p != doc.NoParent {
				out = append(out, p)
			}
		}
	case axis.Self:
		out = ctx
	case axis.FollowingSibling, axis.PrecedingSibling:
		// One walk over each parent's children, from its first context
		// child (following) or up to its last (preceding).
		from := map[int32]int32{}
		for _, c := range ctx {
			p := d.Parent(c)
			if _, ok := from[p]; p != doc.NoParent && (!ok || a == axis.PrecedingSibling) {
				from[p] = c
			}
		}
		for p, c := range from {
			for _, s := range d.Children(p) {
				if s > c && a == axis.FollowingSibling || s < c && a == axis.PrecedingSibling {
					out = append(out, s)
				}
			}
		}
	}
	// Only the attribute axis yields attributes (axis.In). The sweeps
	// are in document order already; ordered sorts what the walks
	// gathered.
	kept := out[:0]
	for _, v := range out {
		if (d.KindOf(v) == doc.Attr) == (a == axis.Attribute) {
			kept = append(kept, v)
		}
	}
	return ordered(kept)
}

// ordered puts nodes into document order without duplicates, in place.
func ordered(nodes []int32) []int32 {
	if !slices.IsSorted(nodes) {
		slices.Sort(nodes)
	}
	return slices.Compact(nodes)
}

// EvalQuery evaluates a union of paths: each branch from the same
// context, the node sets merged into document order without duplicates.
func EvalQuery(d *doc.Document, q xpath.Query, context []int32) []int32 {
	var out []int32
	for _, p := range q.Paths {
		out = append(out, Eval(d, p, context)...)
	}
	return ordered(out)
}

// Eval evaluates one location path from a context sequence (absolute
// paths start at the root). The first step of an absolute path over a
// document whose root is an element gets document-node semantics, the
// convention the planner follows too: the encoding has no node above
// the root element.
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
		nodes = test(d, step, []int32{d.Root()})
	case axis.Descendant, axis.DescendantOrSelf:
		nodes = test(d, step, Region(d, axis.DescendantOrSelf, []int32{d.Root()}))
	case axis.Self, axis.AncestorOrSelf:
		if step.Test.Kind == xpath.TestNode {
			nodes = []int32{d.Root()}
		}
	}
	return filter(d, step.Preds, nodes)
}

// evalStep evaluates one step. Without a positional predicate it runs
// once for the whole context; otherwise context node by context node,
// with proximity positions counted in axis order (backwards on reverse
// axes).
func evalStep(d *doc.Document, step xpath.Step, context []int32) []int32 {
	if !slices.ContainsFunc(step.Preds, positional) {
		return filter(d, step.Preds, test(d, step, Region(d, step.Axis, context)))
	}
	var all []int32
	for _, c := range context {
		nodes := test(d, step, Region(d, step.Axis, []int32{c}))
		if step.Axis.Reverse() {
			slices.Reverse(nodes)
		}
		all = append(all, filter(d, step.Preds, nodes)...)
	}
	return ordered(all)
}

// positional reports whether a predicate reads the proximity position
// or the context size, also inside not, and and or.
func positional(pred xpath.Predicate) bool {
	switch p := pred.(type) {
	case xpath.Position, xpath.Last:
		return true
	case xpath.Not:
		return positional(p.Inner)
	case xpath.And:
		return slices.ContainsFunc(p.Preds, positional)
	case xpath.Or:
		return slices.ContainsFunc(p.Preds, positional)
	}
	return false
}

// test keeps the nodes that pass the step's node test, in place.
func test(d *doc.Document, step xpath.Step, nodes []int32) []int32 {
	kept := nodes[:0]
	for _, v := range nodes {
		if Test(d, step.Axis, step.Test, v) {
			kept = append(kept, v)
		}
	}
	return kept
}

// filter applies the predicates in turn to a node sequence, each node
// at its proximity position in the sequence the previous predicate
// left.
func filter(d *doc.Document, preds []xpath.Predicate, nodes []int32) []int32 {
	for _, pred := range preds {
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
