// Package engine holds the whole-query entry points: EvalString,
// EvalQuery and Eval run a query in one call.
//
// Queries run through internal/plan: plan.Prepare turns query text into
// a physical plan, and the root package and the query server hold that
// plan themselves. Options.LegacyEval routes a query to the reference
// evaluator, internal/spec, instead: the oracle of the plan ≡ reference
// differential suites (plan_equiv_test.go) and of the benchmark. It
// shares no code with the kernels, reads no index, reports no Steps and
// ignores every other option.
package engine

import (
	"staircase/internal/doc"
	"staircase/internal/plan"
	"staircase/internal/spec"
	"staircase/internal/xpath"
)

// Strategy once selected the staircase join's skip rule.
//
// Deprecated: Strategy is ignored. Plans always run estimation-based
// skipping (Algorithm 4), and LegacyEval runs no staircase join; the
// skip rules are a kernel experiment on core.Options.Variant. Strategy
// goes with LegacyEval.
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
	// LegacyEval bypasses the plan compiler and answers with the
	// reference evaluator, internal/spec, which shares no code with the
	// system. Results are identical — the property suites assert plan ≡
	// reference across random queries — and the knob exists only for
	// that differential testing and the benchmark's oracle. The
	// reference reads no index, reports no Steps and ignores every
	// other option.
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
// order; the reference evaluator reports none.
func (e *Engine) EvalQuery(q xpath.Query, context []int32, opts *Options) (*Result, error) {
	if opts != nil && opts.LegacyEval {
		return &Result{Nodes: spec.EvalQuery(e.d, q, context)}, nil
	}
	po := PlanOptions(opts)
	pl, err := plan.PrepareQuery(e.env, q, &po)
	if err != nil {
		return nil, err
	}
	return pl.Run(context)
}

// Eval evaluates a parsed path against an initial context sequence
// (document order, duplicate free). Absolute paths reset the context
// to the document root. The default route is the plan pipeline;
// Options.LegacyEval selects the reference evaluator, internal/spec.
func (e *Engine) Eval(p xpath.Path, context []int32, opts *Options) (*Result, error) {
	return e.EvalQuery(xpath.Query{Paths: []xpath.Path{p}}, context, opts)
}
