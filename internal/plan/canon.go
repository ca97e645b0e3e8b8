// Canonical plan strings. The canonical form identifies the result a
// plan computes (together with the document): operator tree, axes,
// node tests, predicates and pushdown policy. Execution attributes that
// are property-tested to never change results — index-vs-scan fragment
// sourcing, ordering, whether a predicate runs as a semijoin or a
// PredFilter — are deliberately excluded, so the
// same canonical string covers an indexed run and a NoIndex or
// NoValueIndex run, and equivalent query texts
// (`//a/b` and `/descendant-or-self::node()/child::a/child::b`,
// `a[b and c]` and `a[b][c]`) canonicalise identically after the
// logical rewrites.

package plan

import (
	"fmt"
	"sort"
	"strings"
)

// buildCanon renders the canonical string of a compiled plan.
func buildCanon(p *Plan) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "push=%s;", p.opts.Pushdown)
	canonOp(&sb, p.root)
	return sb.String()
}

func canonOp(sb *strings.Builder, o op) {
	switch t := o.(type) {
	case *sourceOp:
		if t.docRoot {
			sb.WriteString("docroot")
		} else {
			sb.WriteString("context")
		}
	case *joinOp:
		canonOp(sb, t.in)
		fmt.Fprintf(sb, "/join(%s::%s", t.stepAxis(), t.test)
		if t.docNode {
			sb.WriteString(",docnode")
		}
		sb.WriteString(")")
	case *axisStepOp:
		canonOp(sb, t.in)
		fmt.Fprintf(sb, "/step(%s::%s", t.a, t.test)
		if t.docNode {
			sb.WriteString(",docnode")
		}
		sb.WriteString(")")
	case filterOp:
		canonChain(sb, o)
	case *emptyOp:
		// Transparent: emptiness is a property of the document binding
		// (an absent tag), not of the result the plan identifies, and
		// must not split cache keys across equivalent spellings.
		canonOp(sb, t.inner)
	case *posFilterOp:
		canonOp(sb, t.in)
		fmt.Fprintf(sb, "/pos(%s", t.step)
		if t.docNode {
			sb.WriteString(",docnode")
		}
		sb.WriteString(")")
	case *mergeOp:
		sb.WriteString("merge(")
		for i, in := range t.ins {
			if i > 0 {
				sb.WriteString(" | ")
			}
			canonOp(sb, in)
		}
		sb.WriteString(")")
	}
}

// canonChain renders a commutable filter chain in *source* order,
// regardless of the evaluation order the greedy ordering pass chose:
// ordering decisions are result-invariant and must not change the
// canonical string the result cache keys on. For unreordered plans
// the source-order sort reproduces the bottom-up rendering exactly.
// Every member renders as its predicate, whichever operator evaluates
// it: a semijoin under the default options and the PredFilter the same
// predicate compiles to under NoValueIndex share one string.
func canonChain(sb *strings.Builder, top op) {
	members, base := filterChain(top)
	canonOp(sb, base)
	sort.SliceStable(members, func(i, j int) bool {
		return asFilter(members[i]).srcOrd < asFilter(members[j]).srcOrd
	})
	for _, m := range members {
		fmt.Fprintf(sb, "/filter[%s]", asFilter(m).pred)
	}
}
