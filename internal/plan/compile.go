// Physical compilation: lower a rewritten logical plan onto the
// operator set, binding it to one document. Compilation selects the
// operator family from the strategy, resolves document-node semantics
// for the first step of absolute paths, attaches fragment scans
// (IndexScan/ColumnScan) to every join whose node test the tag/kind
// index can serve, picks the staircase variant, applies the
// exists-semijoin rewrite where profitable, and annotates every
// operator with cardinality estimates for EXPLAIN.

package plan

import (
	"staircase/internal/axis"
	"staircase/internal/doc"
	"staircase/internal/index"
	"staircase/internal/xpath"
)

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
		cur := op(c.add(&sourceOp{docRoot: lp.Absolute}))
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
		p.root = c.add(&mergeOp{ins: branches})
	}
	if o.Strategy.staircase() && !o.NoReorder {
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
func (c *compiler) add(o op) op {
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
		c.add(pf)
		return pf, maxInt64(pf.est.Out/2, 1), nil
	}

	cur := c.compileAxis(in, s, meta, docNode, estIn)
	estOut := opEstimate(cur)

	for pi, pred := range s.Preds {
		if sj := c.trySemiJoin(cur, meta, s.Axis, pred, estOut); sj != nil {
			sj.srcOrd = pi
			cur = sj
			estOut = maxInt64(estOut/2, 1)
			continue
		}
		if vj, err := c.tryValueSemiJoin(cur, meta, s.Axis, pred, estOut); err != nil {
			return nil, 0, err
		} else if vj != nil {
			vj.srcOrd = pi
			cur = vj
			estOut = maxInt64(estOut/2, 1)
			continue
		}
		prog, err := compilePredProg(c.env, c.opts, pred)
		if err != nil {
			return nil, 0, err
		}
		estOut = maxInt64(estOut/2, 1)
		pf := &predFilterOp{in: cur, meta: meta, pred: pred, prog: prog,
			srcOrd: pi,
			est:    estimates{In: opEstimate(cur), Out: estOut}}
		c.add(pf)
		cur = pf
	}
	return cur, estOut, nil
}

// compileAxis lowers the axis::test part of a step: a StaircaseJoin
// (or the naive/SQL baseline in its slot) for the partitioning axes
// and their or-self variants, an AxisStep for everything else.
func (c *compiler) compileAxis(in op, s *LogicalStep, meta *stepMeta, docNode bool, estIn int64) op {
	d := c.env.Doc
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
			variant:    variantFor(c.opts.Strategy),
		}
		if c.opts.Strategy.staircase() && pushable(s.Test) && c.opts.Pushdown != PushNever {
			jo.frag = c.newFragScan(s.Test)
		}
		card := c.fragCard(s.Test)
		jo.est = estimates{
			In:    estIn,
			Out:   estimateStep(d, s.Axis, card, estIn),
			Bound: int64(d.Size()),
		}
		c.add(jo)
		return jo
	}
	ao := &axisStepOp{in: in, meta: meta, a: s.Axis, test: s.Test, docNode: docNode}
	ao.est = estimates{In: estIn, Out: estimateStep(d, s.Axis, c.fragCard(s.Test), estIn)}
	c.add(ao)
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

// newFragScan builds the fragment-scan leaf for a pushable node test,
// with exact cardinality and pre span when the index serves this
// compilation (ColumnScan compilations leave them unknown).
func (c *compiler) newFragScan(test xpath.NodeTest) *fragScan {
	fs := &fragScan{test: test, card: -1}
	if !c.opts.NoIndex {
		if list := c.indexList(test); list != nil || c.testKnownEmpty(test) {
			fs.card = int64(len(list))
			if lo, hi, ok := index.Span(list); ok {
				fs.spanLo, fs.spanHi, fs.hasSpan = lo, hi, true
			}
		}
	}
	c.add(fs)
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

// trySemiJoin applies the exists-semijoin rewrite to one predicate:
//
//	Filter(S, [axis::t])  =>  SemiJoin(S, inverse(axis), fragment(t))
//
// valid when the predicate is a bare existential single step on a
// partitioning axis with an index-servable node test, evaluated over
// an attribute-free context (any non-attribute owning axis). The
// rewrite replaces |S| per-node path evaluations with one staircase
// node-list join — the set-at-a-time discipline applied to predicates.
func (c *compiler) trySemiJoin(in op, meta *stepMeta, owningAxis axis.Axis, pred xpath.Predicate, estIn int64) *semiJoinOp {
	if !c.opts.Strategy.staircase() || owningAxis == axis.Attribute {
		return nil
	}
	ex, ok := pred.(xpath.Exists)
	if !ok || ex.Path.Absolute || len(ex.Path.Steps) != 1 {
		return nil
	}
	step := ex.Path.Steps[0]
	if !step.Axis.Partitioning() || len(step.Preds) > 0 || !pushable(step.Test) {
		return nil
	}
	inv := inverseAxis(step.Axis)
	sj := &semiJoinOp{
		in:         in,
		meta:       meta,
		pred:       pred.String(),
		existsAxis: step.Axis,
		inv:        inv,
		frag:       c.newFragScan(step.Test),
		variant:    variantFor(c.opts.Strategy),
		est:        estimates{In: estIn, Out: maxInt64(estIn/2, 1)},
	}
	c.add(sj)
	c.p.rewrites = append(c.p.rewrites, "exists-semijoin")
	return sj
}

// tryValueSemiJoin applies the value-semijoin rewrite to one
// predicate:
//
//	Filter(S, [axis::t op lit])  =>  ValueSemiJoin(S, axis, ValueScan(t, op, lit))
//
// valid for comparison ('=', '<', '<=', '>', '>=' — '!=' is not a
// value range) and contains() predicates whose path is a bare
// relative single step on self, child, attribute or descendant(-or-
// self), with a name, '*', text() or node() test, over an
// attribute-free context. The rewrite applies independently of value-
// index availability — the operator falls back to per-node evaluation
// at execution time — so the canonical plan string stays stable
// across Options.NoValueIndex.
func (c *compiler) tryValueSemiJoin(in op, meta *stepMeta, owningAxis axis.Axis, pred xpath.Predicate, estIn int64) (*valueSemiJoinOp, error) {
	if !c.opts.Strategy.staircase() || owningAxis == axis.Attribute || c.opts.Pushdown == PushNever {
		return nil, nil
	}
	vs := &valueScan{}
	var path xpath.Path
	switch p := pred.(type) {
	case xpath.Compare:
		if p.Op == xpath.OpNe {
			return nil, nil
		}
		path = p.Path
		vs.op, vs.lit, vs.numeric = p.Op, p.Literal, p.Numeric
	case xpath.Contains:
		path = p.Path
		vs.contains, vs.lit = true, p.Literal
	default:
		return nil, nil
	}
	if path.Absolute || len(path.Steps) != 1 {
		return nil, nil
	}
	step := path.Steps[0]
	if len(step.Preds) > 0 {
		return nil, nil
	}
	switch step.Axis {
	case axis.Self, axis.Child, axis.Attribute, axis.Descendant, axis.DescendantOrSelf:
	default:
		return nil, nil
	}
	switch step.Test.Kind {
	case xpath.TestName, xpath.TestAny, xpath.TestText, xpath.TestNode:
	default:
		return nil, nil
	}
	vs.pa, vs.test = step.Axis, step.Test
	prog, err := compilePredProg(c.env, c.opts, pred)
	if err != nil {
		return nil, err
	}
	c.add(vs)
	vj := &valueSemiJoinOp{
		in:   in,
		meta: meta,
		pred: pred.String(),
		pa:   step.Axis,
		scan: vs,
		prog: prog,
		est:  estimates{In: estIn, Out: maxInt64(estIn/2, 1)},
	}
	c.add(vj)
	c.p.rewrites = append(c.p.rewrites, "value-semijoin")
	return vj, nil
}

// inverseAxis maps each partitioning axis to its inverse.
func inverseAxis(a axis.Axis) axis.Axis {
	switch a {
	case axis.Descendant:
		return axis.Ancestor
	case axis.Ancestor:
		return axis.Descendant
	case axis.Following:
		return axis.Preceding
	default:
		return axis.Following
	}
}

// opEstimate returns the estimated output cardinality of an operator.
func opEstimate(o op) int64 {
	switch t := o.(type) {
	case *joinOp:
		return t.est.Out
	case *axisStepOp:
		return t.est.Out
	case *predFilterOp:
		return t.est.Out
	case *semiJoinOp:
		return t.est.Out
	case *valueSemiJoinOp:
		return t.est.Out
	case *posFilterOp:
		return t.est.Out
	default:
		return 1
	}
}
