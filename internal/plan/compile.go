// Physical compilation: lower a rewritten logical plan onto the
// operator set, binding it to one document. Compilation resolves
// document-node semantics for the first step of absolute paths,
// attaches fragment scans (IndexScan/ColumnScan) to every join whose
// node test the tag/kind index can serve, turns every predicate a
// fragment serves into a semijoin, and annotates every operator with
// cardinality estimates for EXPLAIN.

package plan

import (
	"staircase/internal/axis"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/index"
	"staircase/internal/xpath"
)

// Prepare turns query text (a location path, or a union of paths
// combined with '|') into a physical plan over env: parse, then
// PrepareQuery. A query past the parser's limits fails with an
// *xpath.LimitError.
func Prepare(env *Env, query string, opts *Options) (*Plan, error) {
	q, err := xpath.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return PrepareQuery(env, q, opts)
}

// PrepareQuery builds the logical plan of a parsed query, rewrites it
// and compiles it against env.
func PrepareQuery(env *Env, q xpath.Query, opts *Options) (*Plan, error) {
	l := BuildLogical(q)
	Rewrite(l)
	return Compile(env, l, opts)
}

// Compile binds a rewritten logical plan to a document environment
// under the given options. The logical plan is not modified and may be
// shared by concurrent compilations.
func Compile(env *Env, l *Logical, opts *Options) (*Plan, error) {
	o := *opts.orDefault()
	p := &Plan{env: env, opts: o, logical: l}
	p.rewrites = append(p.rewrites, l.Rewrites...)
	c := &compiler{p: p, env: env, opts: &o}

	rootIsElem := env.Doc.KindOf(env.Doc.Root()) != doc.VRoot
	var branches []op
	for pi := range l.Paths {
		lp := &l.Paths[pi]
		cur := op(add(c, &sourceOp{docRoot: lp.Absolute}))
		estIn := int64(1)
		if !lp.Absolute {
			estIn = 4 // relative contexts are small node sets in practice
		}
		for si := range lp.Steps {
			s := &lp.Steps[si]
			var err error
			cur, estIn, err = c.compileStep(cur, s, rootIsElem, estIn)
			if err != nil {
				return nil, err
			}
		}
		branches = append(branches, cur)
	}
	if len(branches) == 1 {
		p.root = branches[0]
	} else {
		p.root = add(c, &mergeOp{ins: branches})
	}
	if !o.NoReorder {
		c.orderPlan()
	}
	return p, nil
}

// compiler threads the op table and step ordinals through compilation.
type compiler struct {
	p    *Plan
	env  *Env
	opts *Options
	// cards memoizes fragCard lookups per node test, so repeated tests
	// across steps (and the ordering pass) probe the index maps once.
	cards map[string]int64
}

// add registers an operator in the plan's op table.
func add[T planNode](c *compiler, o T) T {
	o.setID(len(c.p.ops))
	c.p.ops = append(c.p.ops, o)
	return o
}

// meta allocates the next step ordinal.
func (c *compiler) meta(s *LogicalStep) *stepMeta {
	m := &stepMeta{ord: len(c.p.metas) + 1, display: s.displayString(), axis: s.Axis}
	c.p.metas = append(c.p.metas, m)
	return m
}

// compileStep lowers one location step (axis operator plus filters)
// onto the chain ending at `in`.
func (c *compiler) compileStep(in op, s *LogicalStep, rootIsElem bool, estIn int64) (op, int64, error) {
	docNode := s.First && rootIsElem
	meta := c.meta(s)

	// Steps with position-sensitive predicates evaluate context node
	// at a time with proximity positions. (Non-positional predicates
	// decide per node regardless of position, so every other step —
	// document-node steps included — compiles to filters.)
	if s.positional() {
		progs, err := compilePredProgs(c.env, c.opts, s.Preds)
		if err != nil {
			return nil, 0, err
		}
		pf := &posFilterOp{in: in, meta: meta, step: s.step(), docNode: docNode, progs: progs}
		pf.est = estimates{In: estIn, Out: estimateStep(c.env.Doc, s.Axis, c.fragCard(s.Test), estIn)}
		if pushable(s.Test) && c.opts.Pushdown != PushNever {
			// Each context node's partitioning step resolves its fragment
			// through the plan's memoised scan, not once per node.
			c.newFragScan(s.Test)
		}
		add(c, pf)
		return pf, maxInt64(pf.est.Out/2, 1), nil
	}

	cur := c.compileAxis(in, s, meta, docNode, estIn)
	estOut := opEstimate(cur)

	for pi, pred := range s.Preds {
		fb := filterBase{in: cur, meta: meta, est: filterEst(estOut), pred: pred, srcOrd: pi}
		if sj := c.trySemiJoin(fb, s.Axis); sj != nil {
			cur = sj
		} else {
			prog, err := compilePredProg(c.env, c.opts, pred)
			if err != nil {
				return nil, 0, err
			}
			cur = add(c, &predFilterOp{filterBase: fb, prog: prog})
		}
		estOut = fb.est.Out
	}
	return cur, estOut, nil
}

// filterEst is the compile convention for a filter's estimates: it
// keeps half its input.
func filterEst(in int64) estimates { return estimates{In: in, Out: maxInt64(in/2, 1)} }

// compileAxis lowers the axis::test part of a step: a StaircaseJoin for
// the partitioning axes and their or-self variants, an AxisStep for
// everything else.
func (c *compiler) compileAxis(in op, s *LogicalStep, meta *stepMeta, docNode bool, estIn int64) op {
	d := c.env.Doc
	// Both operators only read their context, so a document-node step
	// below lends them its fragment. Filters, merges and the plan's
	// caller own what they receive and get a copy.
	if j, ok := in.(*joinOp); ok && j.docNode {
		j.lend = true
	}
	base, orSelf := joinAxis(s.Axis)
	if base != axis.Child && (!docNode || s.Axis == axis.Descendant || s.Axis == axis.DescendantOrSelf) {
		jo := &joinOp{
			in:         in,
			meta:       meta,
			base:       base,
			orSelf:     orSelf || docNode, // document-node descendant includes the root element
			orSelfAxis: orSelfAxis(s.Axis, docNode),
			docNode:    docNode,
			test:       s.Test,
		}
		if pushable(s.Test) && c.opts.Pushdown != PushNever {
			jo.frag = c.newFragScan(s.Test)
		}
		card := c.fragCard(s.Test)
		jo.est = estimates{In: estIn, Out: estimateStep(d, s.Axis, card, estIn)}
		add(c, jo)
		return jo
	}
	ao := &axisStepOp{in: in, meta: meta, a: s.Axis, test: s.Test, docNode: docNode}
	ao.est = estimates{In: estIn, Out: estimateStep(d, s.Axis, c.fragCard(s.Test), estIn)}
	add(c, ao)
	return ao
}

// joinAxis maps an axis to its partitioning base when the staircase
// join evaluates it; base == axis.Child means "not a join axis".
func joinAxis(a axis.Axis) (base axis.Axis, orSelf bool) {
	switch a {
	case axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding:
		return a, false
	case axis.DescendantOrSelf:
		return axis.Descendant, true
	case axis.AncestorOrSelf:
		return axis.Ancestor, true
	default:
		return axis.Child, false
	}
}

// orSelfAxis resolves the axis the operator evaluates through the
// shared helpers: or-self variants keep their own axis, document-node
// descendant steps evaluate descendant-or-self of the root element.
func orSelfAxis(a axis.Axis, docNode bool) axis.Axis {
	switch a {
	case axis.DescendantOrSelf, axis.AncestorOrSelf:
		return a
	case axis.Descendant:
		if docNode {
			return axis.Descendant // docRootAxisTest handles the or-self merge
		}
	}
	return a
}

// newFragScan returns the plan's fragment-scan leaf for a pushable node
// test, building it on the test's first use, with exact cardinality and
// pre span when the index serves this compilation (ColumnScan
// compilations leave them unknown).
func (c *compiler) newFragScan(test xpath.NodeTest) *fragScan {
	if fs := c.p.frags[test]; fs != nil {
		return fs
	}
	fs := &fragScan{test: test, card: -1}
	if !c.opts.NoIndex {
		if list := c.indexList(test); list != nil || c.testKnownEmpty(test) {
			fs.card = int64(len(list))
			if lo, hi, ok := index.Span(list); ok {
				fs.spanLo, fs.spanHi, fs.hasSpan = lo, hi, true
			}
		}
	}
	if c.p.frags == nil {
		c.p.frags = make(map[xpath.NodeTest]*fragScan)
	}
	c.p.frags[test] = fs
	add(c, fs)
	return fs
}

// fragCard returns the exact fragment cardinality of a pushable test
// when the index is available, -1 otherwise. Lookups memoize per node
// test: a query repeating a name across steps probes the index once.
func (c *compiler) fragCard(test xpath.NodeTest) int64 {
	if c.opts.NoIndex || !pushable(test) {
		return -1
	}
	key := test.String()
	if card, ok := c.cards[key]; ok {
		return card
	}
	card := int64(-1)
	if list := c.indexList(test); list != nil {
		card = int64(len(list))
	} else if c.testKnownEmpty(test) {
		card = 0
	}
	if c.cards == nil {
		c.cards = make(map[string]int64)
	}
	c.cards[key] = card
	return card
}

// indexList fetches the index-served fragment list of a pushable test
// (nil when the tag is absent or the test is not pushable).
func (c *compiler) indexList(test xpath.NodeTest) []int32 {
	d := c.env.Doc
	switch test.Kind {
	case xpath.TestName:
		if id, ok := d.Names().Lookup(test.Name); ok {
			return d.TagIndex().Tag(id)
		}
		return nil
	case xpath.TestText:
		return d.TagIndex().KindList(uint8(doc.Text))
	case xpath.TestComment:
		return d.TagIndex().KindList(uint8(doc.Comment))
	case xpath.TestPI:
		if test.Name == "" {
			return d.TagIndex().KindList(uint8(doc.PI))
		}
	}
	return nil
}

// testKnownEmpty reports whether a pushable name test names a tag
// absent from the document (exact zero cardinality).
func (c *compiler) testKnownEmpty(test xpath.NodeTest) bool {
	if test.Kind != xpath.TestName {
		return false
	}
	_, ok := c.env.Doc.Names().Lookup(test.Name)
	return !ok
}

// trySemiJoin applies the semijoin rewrite to one predicate:
//
//	Filter(S, [p])  =>  SemiJoin(S, fragment(p), relation(p))
//
// valid when p's path is relative, its steps carry no predicates, a
// fragment serves its last step and a relation leads from that step
// back to S (semijoin.go):
//
//   - fragment: for an existential path, the tag/kind list of a
//     pushable last test off the attribute axis (the index lists
//     elements, not attributes); for a comparison ('!=' is no value
//     range) or contains() whose last test is a name, '*', text() or
//     node(), the value-index view, when the value index serves this
//     compilation — otherwise the predicate stays a PredFilter;
//   - relation: staircase for one step on a partitioning axis; climb
//     for a self or descendant-or-self step, or a child or attribute
//     step behind any number of bare child::name or child::* steps.
//
// Over an attribute-owning axis (the input is attributes) nothing is
// rewritten.
func (c *compiler) trySemiJoin(fb filterBase, owningAxis axis.Axis) *semiJoinOp {
	if owningAxis == axis.Attribute {
		return nil
	}
	var path xpath.Path
	var vs *valueScan
	switch p := fb.pred.(type) {
	case xpath.Exists:
		path = p.Path
	case xpath.Compare:
		if p.Op == xpath.OpNe {
			return nil
		}
		path, vs = p.Path, &valueScan{op: p.Op, lit: p.Literal, numeric: p.Numeric}
	case xpath.Contains:
		path, vs = p.Path, &valueScan{contains: true, lit: p.Literal}
	default:
		return nil
	}
	if path.Absolute || len(path.Steps) == 0 {
		return nil
	}
	last, prefix := path.Steps[len(path.Steps)-1], path.Steps[:len(path.Steps)-1]
	if len(last.Preds) > 0 {
		return nil
	}
	if vs == nil {
		if !pushable(last.Test) || last.Axis == axis.Attribute {
			return nil
		}
	} else if !valueIndexServes(c.env.Doc, c.opts) || !valueTest(last.Test) {
		return nil
	}
	switch last.Axis {
	case axis.Child, axis.Attribute:
	case axis.Self, axis.DescendantOrSelf, axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding:
		if len(prefix) > 0 {
			return nil
		}
	default:
		return nil
	}
	var up []core.Emit // the prefix tests in climb order, innermost first
	for i := len(prefix) - 1; i >= 0; i-- {
		s := prefix[i]
		if s.Axis != axis.Child || len(s.Preds) > 0 || s.Test.Kind != xpath.TestName && s.Test.Kind != xpath.TestAny {
			return nil
		}
		up = append(up, emitFor(c.env.Doc, axis.Child, s.Test))
	}
	sj := &semiJoinOp{filterBase: fb, a: last.Axis, up: up, path: path}
	if vs == nil {
		sj.frag = c.newFragScan(last.Test)
	} else {
		vs.pa, vs.test = last.Axis, last.Test
		add(c, vs)
		sj.frag = vs
	}
	add(c, sj)
	c.p.rewrites = append(c.p.rewrites, "semijoin")
	return sj
}

// opEstimate returns the estimated output cardinality of an operator.
func opEstimate(o op) int64 {
	switch t := o.(type) {
	case *joinOp:
		return t.est.Out
	case *axisStepOp:
		return t.est.Out
	case filterOp:
		return t.filter().est.Out
	case *posFilterOp:
		return t.est.Out
	default:
		return 1
	}
}
