// Rule-based logical rewriter: the paper's §4.4 "XPath rewriting laws"
// as explicit, named transformations over the logical plan. Each rule
// is algebraic — valid for every document — and is recorded in
// Logical.Rewrites so EXPLAIN can show what fired. The rules:
//
//	collapse-descendant-or-self
//	    descendant-or-self::node()/child::t      => descendant::t
//	    descendant-or-self::node()/descendant::t => descendant::t
//	    descendant-or-self::node()/descendant-or-self::t
//	                                             => descendant-or-self::t
//	  The '//' abbreviation expands to a descendant-or-self::node()
//	  step that materialises the entire document before the next step
//	  filters it. Collapsing turns the pair into a single partitioning
//	  axis step — one staircase join, eligible for name-test pushdown
//	  into an index scan. Guarded against position-sensitive
//	  predicates on the second step ([1] counts children, not
//	  descendants).
//
//	drop-self-node
//	    .../self::node() => ...
//	  A bare '.' step is the identity on any attribute-free context
//	  (guarded: the preceding step must not be the attribute axis,
//	  since self::node() drops attribute nodes).
//
//	split-and
//	    step[p and q] => step[p][q]
//	  Conjunctions split into filter chains so each conjunct can be
//	  optimised independently (e.g. one conjunct becomes a staircase
//	  semijoin while another stays a per-node filter). Guarded against
//	  position-sensitive predicates, whose proximity positions would
//	  be renumbered between the split filters.
//
// A fourth rule, semijoin, is applied during physical compilation
// (compile.go) because whether it applies depends on the document: on
// the tag/kind index serving the node test, or the value index serving
// the comparison.

package plan

import (
	"staircase/internal/axis"
	"staircase/internal/xpath"
)

// Rewrite applies the logical rewrite rules to fixpoint, records the
// applied rule names in l.Rewrites, and returns them. Rewrite must be
// called once, before the logical plan is shared or compiled.
func Rewrite(l *Logical) []string {
	for pi := range l.Paths {
		p := &l.Paths[pi]
		for {
			if collapseDescendantOrSelf(l, p) {
				continue
			}
			if dropSelfNode(l, p) {
				continue
			}
			break
		}
		splitAnd(l, p)
	}
	for pi := range l.Paths {
		steps := l.Paths[pi].Steps
		for si := range steps {
			steps[si].display = steps[si].step().String()
		}
	}
	return l.Rewrites
}

// applied records one rule application.
func (l *Logical) applied(rule string) { l.Rewrites = append(l.Rewrites, rule) }

// collapseDescendantOrSelf fires the first matching collapse in the
// chain and reports whether it rewrote anything.
func collapseDescendantOrSelf(l *Logical, p *LogicalPath) bool {
	for i := 0; i+1 < len(p.Steps); i++ {
		s, next := &p.Steps[i], &p.Steps[i+1]
		if s.Axis != axis.DescendantOrSelf || s.Test.Kind != xpath.TestNode || len(s.Preds) > 0 {
			continue
		}
		var newAxis axis.Axis
		switch next.Axis {
		case axis.Child, axis.Descendant:
			newAxis = axis.Descendant
		case axis.DescendantOrSelf:
			newAxis = axis.DescendantOrSelf
		default:
			continue
		}
		if next.positional() {
			// [n] counts children of each context node; collapsing
			// would make it count descendants.
			continue
		}
		// The collapsed step starts from the *context set* of the
		// eliminated step, never from the document node: even when the
		// eliminated step was the first step of an absolute path, the
		// intermediate node set it produced contains the root element
		// but not the (unmaterialised) document node, so the combined
		// step is an ordinary join from the root context.
		next.Axis = newAxis
		next.First = false
		p.Steps = append(p.Steps[:i], p.Steps[i+1:]...)
		l.applied("collapse-descendant-or-self")
		return true
	}
	return false
}

// dropSelfNode removes a bare self::node() step whose context is
// guaranteed attribute-free, and reports whether it rewrote anything.
func dropSelfNode(l *Logical, p *LogicalPath) bool {
	for i := 1; i < len(p.Steps); i++ {
		s := &p.Steps[i]
		if s.Axis != axis.Self || s.Test.Kind != xpath.TestNode || len(s.Preds) > 0 {
			continue
		}
		if p.Steps[i-1].Axis == axis.Attribute {
			continue // self::node() would drop the attribute nodes
		}
		p.Steps = append(p.Steps[:i], p.Steps[i+1:]...)
		l.applied("drop-self-node")
		return true
	}
	return false
}

// splitAnd flattens top-level conjunctions in each position-free
// step's predicate list.
func splitAnd(l *Logical, p *LogicalPath) {
	for i := range p.Steps {
		s := &p.Steps[i]
		if s.positional() {
			continue
		}
		split := false
		for _, pred := range s.Preds {
			if _, ok := pred.(xpath.And); ok {
				split = true
				break
			}
		}
		if !split {
			continue
		}
		out := make([]xpath.Predicate, 0, len(s.Preds)+1)
		for _, pred := range s.Preds {
			if a, ok := pred.(xpath.And); ok {
				out = append(out, a.Preds...)
				l.applied("split-and")
				continue
			}
			out = append(out, pred)
		}
		s.Preds = out
	}
}
