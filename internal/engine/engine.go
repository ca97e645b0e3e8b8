// Package engine is the pre-plan evaluator and the benchmark's
// whole-query entry points.
//
// Queries run through internal/plan: plan.Prepare turns query text into
// a physical plan, and the root package and the query server hold that
// plan themselves. What is left here is the recursive step interpreter
// that preceded the plan compiler, kept behind Options.LegacyEval as
// the oracle of the plan ≡ legacy differential suite
// (plan_equiv_test.go), and EvalString, EvalQuery and Eval, which run a
// query either way in one call. The legacy runs the basic
// staircase join (Algorithm 2) and applies every node test after it; it
// reads no index, so of the Options only LegacyEval applies to it.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"staircase/internal/axis"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/plan"
	"staircase/internal/xpath"
)

// Strategy once selected the staircase join's skip rule.
//
// Deprecated: Strategy is ignored. Plans always run estimation-based
// skipping (Algorithm 4) and the legacy interpreter the basic join
// (Algorithm 2); the skip rules are a kernel experiment on
// core.Options.Variant. Strategy goes with LegacyEval.
type Strategy uint8

// Deprecated: the Strategy values are ignored; see Strategy.
const (
	Staircase Strategy = iota
	StaircaseSkip
	StaircaseNoSkip
)

// Pushdown controls name-test pushdown (an alias of plan.Pushdown).
type Pushdown = plan.Pushdown

const (
	// PushAuto pushes when the shared index serves the fragment.
	PushAuto = plan.PushAuto
	// PushAlways forces pushdown whenever a name test is present.
	PushAlways = plan.PushAlways
	// PushNever evaluates the join first and filters afterwards.
	PushNever = plan.PushNever
)

// Options configures evaluation. The zero value is the paper default:
// full staircase join with automatic pushdown.
type Options struct {
	// Deprecated: Strategy is ignored; see Strategy.
	Strategy Strategy
	Pushdown Pushdown
	// NoIndex disables the document's shared tag/kind index for this
	// evaluation: pushdown fragments are rebuilt with an O(n) column
	// scan per step (the pre-index behaviour). Results are identical;
	// the knob exists for ablation and the rescan-baseline benchmarks.
	NoIndex bool
	// NoValueIndex disables the document's value index for this
	// evaluation: comparison and contains() predicates fall back to
	// per-node evaluation instead of value-fragment semijoins. Results
	// are identical; the knob exists for ablation and the value-rescan
	// benchmarks.
	NoValueIndex bool
	// NoReorder disables the planner's statistics-driven greedy
	// ordering of commutable filter chains and the empty-fragment
	// short-circuit: predicates evaluate strictly in source order.
	// Results are identical; the knob exists for ablation and the
	// ordering benchmarks.
	NoReorder bool
	// LegacyEval bypasses the plan compiler and evaluates with the
	// pre-plan recursive step interpreter. Results are identical — the
	// property suite asserts plan ≡ legacy across random queries — and
	// the knob exists only for that differential testing; it will be
	// removed once the interpreter is retired. The interpreter reads no
	// index and ignores every other option.
	LegacyEval bool
}

// PlanOptions returns the planner options of o (nil: the defaults);
// LegacyEval has no planner counterpart.
func PlanOptions(o *Options) plan.Options {
	if o == nil {
		return plan.Options{}
	}
	return plan.Options{
		Pushdown:     o.Pushdown,
		NoIndex:      o.NoIndex,
		NoValueIndex: o.NoValueIndex,
		NoReorder:    o.NoReorder,
	}
}

// StepReport records per-step evaluation statistics.
type StepReport = plan.StepStats

// Result is the outcome of a path evaluation.
type Result = plan.Result

// Engine evaluates XPath paths over one document. Engines are immutable
// and safe for concurrent use: pushdown fragments live in the
// document's shared immutable tag/kind index, not in the engine.
type Engine struct {
	d   *doc.Document
	env *plan.Env
}

// New returns an engine over the document.
func New(d *doc.Document) *Engine {
	return &Engine{d: d, env: plan.NewEnv(d)}
}

// Env returns the plan execution environment of the engine.
func (e *Engine) Env() *plan.Env { return e.env }

// EvalString parses and evaluates a query (a location path, or a union
// of paths combined with '|'). Absolute paths start at the document
// root; relative paths are evaluated with the root as the initial
// context node as well (the conventional CLI behaviour).
func (e *Engine) EvalString(query string, opts *Options) (*Result, error) {
	if opts != nil && opts.LegacyEval {
		q, err := xpath.ParseQuery(query)
		if err != nil {
			return nil, err
		}
		return e.EvalQuery(q, []int32{e.d.Root()}, opts)
	}
	po := PlanOptions(opts)
	pl, err := plan.Prepare(e.env, query, &po)
	if err != nil {
		return nil, err
	}
	return pl.RunRoot()
}

// EvalQuery evaluates a union of paths: each path runs independently
// and the node sets merge into one document-ordered duplicate-free
// sequence (XPath '|' semantics). Step reports concatenate in path
// order.
func (e *Engine) EvalQuery(q xpath.Query, context []int32, opts *Options) (*Result, error) {
	if opts == nil || !opts.LegacyEval {
		po := PlanOptions(opts)
		pl, err := plan.PrepareQuery(e.env, q, &po)
		if err != nil {
			return nil, err
		}
		return pl.Run(context)
	}
	if len(q.Paths) == 1 {
		return e.Eval(q.Paths[0], context, opts)
	}
	res := &Result{}
	for _, p := range q.Paths {
		r, err := e.Eval(p, context, opts)
		if err != nil {
			return nil, err
		}
		res.Nodes = core.MergeOrSelf(res.Nodes, r.Nodes)
		res.Steps = append(res.Steps, r.Steps...)
	}
	return res, nil
}

// Eval evaluates a parsed path against an initial context sequence
// (document order, duplicate free). Absolute paths reset the context
// to the document root. The default route is the plan pipeline;
// Options.LegacyEval selects the pre-plan recursive step interpreter
// below, kept for differential testing.
func (e *Engine) Eval(p xpath.Path, context []int32, opts *Options) (*Result, error) {
	if opts == nil || !opts.LegacyEval {
		return e.EvalQuery(xpath.Query{Paths: []xpath.Path{p}}, context, opts)
	}
	cur := context
	if p.Absolute {
		cur = []int32{e.d.Root()}
	}
	res := &Result{}
	for i, step := range p.Steps {
		rep := StepReport{Step: step.String(), Axis: step.Axis, InputSize: len(cur)}
		start := time.Now()
		var next []int32
		var err error
		if i == 0 && p.Absolute && e.d.KindOf(e.d.Root()) != doc.VRoot {
			// XPath's "/" denotes the document node above the root
			// element, which the encoding does not materialise (a
			// virtual root of a collection plays that role when
			// present). Give the first step document-node semantics.
			next, err = e.evalDocRootStep(step, opts, &rep)
		} else {
			next, err = e.evalStep(step, cur, opts, &rep)
		}
		if err != nil {
			return nil, err
		}
		rep.Duration = time.Since(start)
		rep.OutputSize = len(next)
		res.Steps = append(res.Steps, rep)
		cur = next
	}
	res.Nodes = cur
	return res, nil
}

// evalDocRootStep evaluates the first step of an absolute path against
// the implicit document node: its only child is the root element, its
// descendants are all nodes including the root element, and every other
// axis is empty from there.
func (e *Engine) evalDocRootStep(step xpath.Step, opts *Options, rep *StepReport) ([]int32, error) {
	root := e.d.Root()
	var nodes []int32
	var err error
	switch step.Axis {
	case axis.Child:
		nodes = e.filterTest(step.Axis, step.Test, []int32{root})
	case axis.Descendant, axis.DescendantOrSelf:
		nodes, err = e.evalAxisTest(axis.DescendantOrSelf, step.Test, []int32{root}, rep)
		if err != nil {
			return nil, err
		}
	case axis.Self, axis.AncestorOrSelf:
		if step.Test.Kind == xpath.TestNode {
			nodes = []int32{root} // stand-in for the document node
		}
	default:
		// ancestor, parent, siblings, following, preceding, attribute,
		// namespace: empty from the document node.
	}
	if step.Axis.Reverse() {
		for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
			nodes[i], nodes[j] = nodes[j], nodes[i]
		}
	}
	for _, pred := range step.Preds {
		nodes, err = e.applyPredPositional(nodes, pred, opts)
		if err != nil {
			return nil, err
		}
	}
	return sortDedup(nodes), nil
}

// evalStep evaluates one location step including predicates.
func (e *Engine) evalStep(step xpath.Step, context []int32, opts *Options, rep *StepReport) ([]int32, error) {
	if hasPositional(step.Preds) {
		return e.evalStepPositional(step, context, opts, rep)
	}
	nodes, err := e.evalAxisTest(step.Axis, step.Test, context, rep)
	if err != nil {
		return nil, err
	}
	for _, pred := range step.Preds {
		nodes, err = e.filterPred(nodes, pred, opts)
		if err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// hasPositional reports whether any predicate (also inside not(...))
// is position-sensitive, requiring per-context evaluation.
func hasPositional(preds []xpath.Predicate) bool {
	for _, p := range preds {
		switch q := p.(type) {
		case xpath.Position, xpath.Last:
			return true
		case xpath.Not:
			if hasPositional([]xpath.Predicate{q.Inner}) {
				return true
			}
		case xpath.And:
			if hasPositional(q.Preds) {
				return true
			}
		case xpath.Or:
			if hasPositional(q.Preds) {
				return true
			}
		}
	}
	return false
}

// evalStepPositional evaluates the step context node by context node,
// maintaining XPath proximity positions (reverse axes count backwards).
func (e *Engine) evalStepPositional(step xpath.Step, context []int32, opts *Options, rep *StepReport) ([]int32, error) {
	var all []int32
	for _, c := range context {
		nodes, err := e.evalAxisTest(step.Axis, step.Test, []int32{c}, rep)
		if err != nil {
			return nil, err
		}
		if step.Axis.Reverse() {
			for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
				nodes[i], nodes[j] = nodes[j], nodes[i]
			}
		}
		for _, pred := range step.Preds {
			nodes, err = e.applyPredPositional(nodes, pred, opts)
			if err != nil {
				return nil, err
			}
		}
		all = append(all, nodes...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out := all[:0]
	for i, v := range all {
		if i > 0 && v == all[i-1] {
			continue
		}
		out = append(out, v)
	}
	return append([]int32(nil), out...), nil
}

// applyPredPositional applies one predicate to an axis-ordered node
// sequence of a single context node, maintaining proximity positions:
// each node is tested with its 1-based position and the sequence size
// (XPath semantics; subsequent predicates see renumbered sequences).
func (e *Engine) applyPredPositional(nodes []int32, pred xpath.Predicate, opts *Options) ([]int32, error) {
	var out []int32
	for i, v := range nodes {
		ok, err := e.predHoldsAt(v, pred, i+1, len(nodes), opts)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, v)
		}
	}
	return out, nil
}

// predHoldsAt decides any predicate for a node at a known proximity
// position.
func (e *Engine) predHoldsAt(v int32, pred xpath.Predicate, pos, size int, opts *Options) (bool, error) {
	switch p := pred.(type) {
	case xpath.Position:
		return pos == p.N, nil
	case xpath.Last:
		return pos == size, nil
	case xpath.Not:
		ok, err := e.predHoldsAt(v, p.Inner, pos, size, opts)
		return !ok, err
	case xpath.And:
		for _, q := range p.Preds {
			ok, err := e.predHoldsAt(v, q, pos, size, opts)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case xpath.Or:
		for _, q := range p.Preds {
			ok, err := e.predHoldsAt(v, q, pos, size, opts)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	default:
		return e.predHolds(v, pred, opts)
	}
}

// filterPred filters a document-ordered node set by a non-positional
// predicate.
func (e *Engine) filterPred(nodes []int32, pred xpath.Predicate, opts *Options) ([]int32, error) {
	out := nodes[:0]
	for _, v := range nodes {
		ok, err := e.predHolds(v, pred, opts)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, v)
		}
	}
	return out, nil
}

// predHolds decides a non-positional predicate for one candidate node.
func (e *Engine) predHolds(v int32, pred xpath.Predicate, opts *Options) (bool, error) {
	switch p := pred.(type) {
	case xpath.Exists:
		r, err := e.Eval(p.Path, []int32{v}, opts)
		if err != nil {
			return false, err
		}
		return len(r.Nodes) > 0, nil
	case xpath.Compare:
		r, err := e.Eval(p.Path, []int32{v}, opts)
		if err != nil {
			return false, err
		}
		for _, n := range r.Nodes {
			if xpath.CompareValue(e.d.StringValue(n), p.Op, p.Literal, p.Numeric) {
				return true, nil
			}
		}
		return false, nil
	case xpath.Contains:
		r, err := e.Eval(p.Path, []int32{v}, opts)
		if err != nil {
			return false, err
		}
		for _, n := range r.Nodes {
			if strings.Contains(e.d.StringValue(n), p.Literal) {
				return true, nil
			}
		}
		return false, nil
	case xpath.Not:
		ok, err := e.predHolds(v, p.Inner, opts)
		return !ok, err
	case xpath.And:
		for _, q := range p.Preds {
			ok, err := e.predHolds(v, q, opts)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case xpath.Or:
		for _, q := range p.Preds {
			ok, err := e.predHolds(v, q, opts)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("engine: unsupported predicate %T in set mode", pred)
	}
}
