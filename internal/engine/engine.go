// Package engine evaluates XPath location paths over pre/post encoded
// documents, with the staircase join as the axis-step workhorse.
//
// The engine is the evaluation façade over the plan compiler
// (internal/plan): Eval and EvalString build the logical plan, apply
// the rewrite rules, compile the physical plan against the document
// and execute it; Compile returns a reusable parse+rewrite handle and
// Prepare a bound physical plan for callers that run one query many
// times (the query server, benchmark loops). A per-step strategy knob
// selects between the staircase join variants and the tree-unaware
// baselines, which is exactly the comparison matrix of the paper's
// Experiments 1–3. The pre-plan recursive step interpreter is kept,
// verbatim, behind Options.LegacyEval as the oracle of the plan ≡
// legacy differential property suite (plan_equiv_test.go).
//
// Name-test pushdown (§4.4): for a step like ancestor::bidder the
// engine may rewrite
//
//	nametest(staircasejoin_anc(doc, cs), "bidder")
//	  -> staircasejoin_anc(nametest(doc, "bidder"), cs)
//
// running the join over the (much smaller) tag node list. A simple
// selectivity heuristic decides automatically — the cost-model stub the
// paper lists as future research — and can be overridden for ablation.
//
// Parallel execution (§3.2/§6): Options.Parallelism > 1 evaluates the
// four partitioning axes with the partition-parallel staircase join
// (core.ParallelJoin). The cost model clamps the requested worker count
// so that each worker has enough estimated scan work to amortise the
// fan-out, and factors the per-worker scan bound into the name-test
// pushdown decision. Results are identical to serial evaluation —
// pruning leaves staircase partitions that scan disjoint document
// regions, so per-worker results concatenate in document order.
//
// Pushdown fragments come from the document's shared tag/kind index
// (doc.TagIndex, internal/index): built at most once per document —
// or loaded straight from an SCJ2 file — and shared lock-free by every
// engine over the document, so no engine ever rescans the name column.
// Options.NoIndex restores the pre-index behaviour (an O(n) scan per
// pushed step) for ablation; results are identical either way.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"staircase/internal/axis"
	"staircase/internal/baseline"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/plan"
	"staircase/internal/xpath"
)

// Strategy selects the axis-step algorithm for partitioning axes. It
// is an alias of plan.Strategy: the planner owns the strategy space,
// the engine re-exports it for its callers.
type Strategy = plan.Strategy

const (
	// Staircase is the paper's full configuration: staircase join with
	// estimation-based skipping.
	Staircase = plan.Staircase
	// StaircaseSkip uses plain skipping (Algorithm 3).
	StaircaseSkip = plan.StaircaseSkip
	// StaircaseNoSkip uses the basic algorithm (Algorithm 2).
	StaircaseNoSkip = plan.StaircaseNoSkip
	// Naive evaluates one region query per context node and removes
	// duplicates afterwards (Experiment 1's strawman).
	Naive = plan.Naive
	// SQL mimics the tree-unaware indexed plan of Figure 3.
	SQL = plan.SQL
	// SQLWindow is SQL plus the Equation (1) window predicate (§2.1).
	SQLWindow = plan.SQLWindow
)

// Pushdown controls name-test pushdown for staircase strategies (an
// alias of plan.Pushdown).
type Pushdown = plan.Pushdown

const (
	// PushAuto decides by tag selectivity (the cost-model heuristic).
	PushAuto = plan.PushAuto
	// PushAlways forces pushdown whenever a name test is present.
	PushAlways = plan.PushAlways
	// PushNever evaluates the join first and filters afterwards.
	PushNever = plan.PushNever
)

// AutoParallelism requests one staircase-join worker per available CPU
// (runtime.GOMAXPROCS) when assigned to Options.Parallelism.
const AutoParallelism = -1

// Options configures evaluation. The zero value is the paper default:
// full staircase join with automatic pushdown, serial execution.
type Options struct {
	Strategy Strategy
	Pushdown Pushdown
	// Parallelism is the worker count for partition-parallel staircase
	// joins on the descendant/ancestor/following/preceding axes: 0 or 1
	// evaluates serially, > 1 uses at most that many workers, and any
	// negative value (canonically AutoParallelism) uses GOMAXPROCS. The
	// cost model may use fewer workers on steps too small to amortise
	// the goroutine fan-out; StepReport.Core.Workers records the count
	// actually used. Parallelism applies to Run; cursors (Cursor,
	// EvalFirst, EvalLimit) always run the serial windowed kernels, so a
	// limit consumer keeps its early exit.
	Parallelism int
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
	// ordering of commutable filter chains, the empty-fragment
	// short-circuit and mid-flight adaptive re-planning: predicates
	// evaluate strictly in source order, semijoins always sweep their
	// fragment. Results are identical; the knob exists for ablation and
	// the ordering benchmarks.
	NoReorder bool
	// LegacyEval bypasses the plan compiler and evaluates with the
	// pre-plan recursive step interpreter. Results are identical — the
	// property suite asserts plan ≡ legacy across random queries — and
	// the knob exists only for that differential testing; it will be
	// removed once the interpreter is retired.
	LegacyEval bool
}

// planOptions converts engine options to planner options.
func planOptions(o *Options) *plan.Options {
	return &plan.Options{
		Strategy:     o.Strategy,
		Pushdown:     o.Pushdown,
		Parallelism:  o.Parallelism,
		NoIndex:      o.NoIndex,
		NoValueIndex: o.NoValueIndex,
		NoReorder:    o.NoReorder,
	}
}

// StepReport records per-step evaluation statistics.
type StepReport struct {
	// Step is the canonical rendering of the location step.
	Step string
	// Axis of the step.
	Axis axis.Axis
	// InputSize and OutputSize are the context and result sequence
	// lengths (after predicates).
	InputSize, OutputSize int
	// Pushed reports whether the name/kind test was pushed below the
	// join; Indexed reports whether the pushed fragment came from the
	// document's shared tag/kind index (false: name-column scan).
	Pushed, Indexed bool
	// Core holds staircase join work counters (staircase strategies,
	// partitioning axes only).
	Core core.Stats
	// Naive holds naive-strategy counters.
	Naive baseline.NaiveStats
	// Duration is the wall-clock time of the step.
	Duration time.Duration
}

// Result is the outcome of a path evaluation.
type Result struct {
	// Nodes is the result sequence: pre ranks in document order,
	// duplicate-free (XPath node-sequence semantics).
	Nodes []int32
	// Steps reports per-step statistics in evaluation order.
	Steps []StepReport
	// Truncated reports that a limited evaluation (EvalFirst,
	// EvalLimit) stopped at its limit while further results may exist.
	Truncated bool
}

// Engine evaluates XPath paths over one document. Engines are safe for
// concurrent use: the only mutable state is the lazily built SQL
// baseline (mutex-guarded); pushdown fragments live in the document's
// shared immutable tag/kind index, not in the engine.
type Engine struct {
	d   *doc.Document
	env *plan.Env
}

// New returns an engine over the document.
func New(d *doc.Document) *Engine {
	return &Engine{d: d, env: plan.NewEnv(d)}
}

// Env returns the plan execution environment of the engine (shared
// per-document runtime state for the planner's operators).
func (e *Engine) Env() *plan.Env { return e.env }

// Document returns the engine's document.
func (e *Engine) Document() *doc.Document { return e.d }

// sqlEngine lazily builds the B-tree indexes of the SQL baseline
// (shared with the planner via the engine's Env).
func (e *Engine) sqlEngine() *baseline.SQLEngine {
	return e.env.SQL()
}

// TagList returns the pre-sorted list of element nodes carrying the
// given name id — the nametest(doc, n) fragment of §4.4, served by the
// document's shared index (built at most once per document).
func (e *Engine) TagList(nameID int32) []int32 {
	return e.d.TagIndex().Tag(nameID)
}

// scanTagList rebuilds a tag fragment with an O(n) column scan — the
// pre-index behaviour behind Options.NoIndex.
func (e *Engine) scanTagList(nameID int32) []int32 {
	kind := e.d.KindSlice()
	name := e.d.NameSlice()
	var list []int32
	for v := 0; v < e.d.Size(); v++ {
		if kind[v] == doc.Elem && name[v] == nameID {
			list = append(list, int32(v))
		}
	}
	return list
}

// scanKindList is scanTagList for a non-element node kind.
func (e *Engine) scanKindList(k doc.Kind) []int32 {
	kind := e.d.KindSlice()
	var list []int32
	for v := 0; v < e.d.Size(); v++ {
		if kind[v] == k {
			list = append(list, int32(v))
		}
	}
	return list
}

// EvalString parses and evaluates a query (a location path, or a union
// of paths combined with '|'). Absolute paths start at the document
// root; relative paths are evaluated with the root as the initial
// context node as well (the conventional CLI behaviour).
func (e *Engine) EvalString(query string, opts *Options) (*Result, error) {
	c, err := Compile(query)
	if err != nil {
		return nil, err
	}
	return e.EvalCompiled(c, opts)
}

// EvalQuery evaluates a union of paths: each path runs independently
// and the node sets merge into one document-ordered duplicate-free
// sequence (XPath '|' semantics). Step reports concatenate in path
// order.
func (e *Engine) EvalQuery(q xpath.Query, context []int32, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if !opts.LegacyEval {
		return e.evalPlan(q, context, opts)
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

// evalPlan evaluates a query through the plan pipeline: build the
// logical plan, rewrite, compile against this document, execute.
func (e *Engine) evalPlan(q xpath.Query, context []int32, opts *Options) (*Result, error) {
	l := plan.BuildLogical(q)
	plan.Rewrite(l)
	pl, err := plan.Compile(e.env, l, planOptions(opts))
	if err != nil {
		return nil, err
	}
	r, err := pl.Run(context)
	if err != nil {
		return nil, err
	}
	return planResult(r), nil
}

// planResult converts a plan execution result to the engine's report
// form (the two are field-compatible by construction).
func planResult(r *plan.Result) *Result {
	res := &Result{Nodes: r.Nodes, Steps: make([]StepReport, len(r.Steps)), Truncated: r.Truncated}
	for i, s := range r.Steps {
		res.Steps[i] = StepReport{
			Step:       s.Step,
			Axis:       s.Axis,
			InputSize:  s.InputSize,
			OutputSize: s.OutputSize,
			Pushed:     s.Pushed,
			Indexed:    s.Indexed,
			Core:       s.Core,
			Naive:      s.Naive,
			Duration:   s.Duration,
		}
	}
	return res
}

// Eval evaluates a parsed path against an initial context sequence
// (document order, duplicate free). Absolute paths reset the context
// to the document root. The default route is the plan pipeline
// (build, rewrite, compile, execute); Options.LegacyEval selects the
// pre-plan recursive step interpreter below, kept for differential
// testing.
func (e *Engine) Eval(p xpath.Path, context []int32, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if !opts.LegacyEval {
		return e.evalPlan(xpath.Query{Paths: []xpath.Path{p}}, context, opts)
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
		nodes, err = e.evalAxisTest(axis.DescendantOrSelf, step.Test, []int32{root}, opts, rep)
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
	nodes, err := e.evalAxisTest(step.Axis, step.Test, context, opts, rep)
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
		nodes, err := e.evalAxisTest(step.Axis, step.Test, []int32{c}, opts, rep)
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
