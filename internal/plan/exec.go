// Plan execution: the executor walks the operator tree, pulling node
// sequences through the operators and recording per-operator and
// per-step statistics for EXPLAIN and the engine's step reports.

package plan

import (
	"context"
	"sync"
	"time"

	"staircase/internal/axis"
	"staircase/internal/baseline"
	"staircase/internal/core"
	"staircase/internal/xpath"
)

// StepStats records per-location-step evaluation statistics,
// aggregated over the operators implementing the step (axis operator
// plus its filters).
type StepStats struct {
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

// opStat records per-operator execution facts for EXPLAIN.
type opStat struct {
	ran      bool
	in, out  int
	pushed   bool
	indexed  bool
	fragSize int
	// skipped counts document (or fragment) nodes the operator's
	// staircase kernels jumped over without touching — the §3.3 empty
	// regions plus, under streaming execution, seek jumps and regions
	// never scanned because a downstream consumer stopped early.
	skipped int64
	// bound is the cost model's full-join touch bound from the actual
	// context; workersOffered the worker count the fan-out decision
	// used.
	bound          int64
	workersOffered int
	// probeDir records the semijoin probe direction actually taken:
	// probeFragSweep partitions the fragment (one staircase sweep over
	// input+fragment), probeInputSeek probes each input node into the
	// fragment by binary search (chosen when the input is much smaller).
	probeDir int8
}

// Semijoin probe directions (opStat.probeDir).
const (
	probeUnset     int8 = iota
	probeFragSweep      // sweep: fragment partitions the input
	probeInputSeek      // seek: each input node binary-probes the fragment
)

// probeFromInput decides the semijoin probe direction from the actual
// cardinalities: per-input binary probes (O(n log f)) beat the linear
// fragment sweep (O(n + f)) when the fragment dwarfs the input.
func probeFromInput(in, frag int) bool {
	return in > 0 && frag/in >= 16
}

func (s *opStat) record(in, out int) {
	s.ran = true
	s.in = in
	s.out = out
}

// execCtx is one execution of a plan.
type execCtx struct {
	env     *Env
	opts    *Options
	initial []int32
	ops     []opStat
	steps   []StepStats
	// ctx carries cancellation into the execution; operators check it
	// between batches (streaming) and at operator/loop boundaries
	// (materializing), so server timeouts and client disconnects stop
	// running joins. nil means "never cancelled".
	ctx context.Context
	// cur points at the opStat of the operator currently evaluating a
	// partitioning axis, so the shared helpers can record the cost
	// bounds and decisions they compute.
	cur *opStat
	// curFrag is the memoized fragment scan of the join currently
	// evaluating, so the shared partitioning helper reuses its resolved
	// list instead of re-probing the index maps.
	curFrag *fragScan
	// replans collects mid-flight adaptive re-planning notes (cursor
	// executor), surfaced through Result for EXPLAIN's reorder footer.
	replans []string
}

// fragList resolves the fragment list for a node test, serving it from
// the current join's memoized fragment scan when the tests match.
func (ec *execCtx) fragList(test xpath.NodeTest) (list []int32, indexed, ok bool) {
	if f := ec.curFrag; f != nil && f.test == test {
		return f.resolveWith(ec.env.Doc, ec.opts)
	}
	return pushdownList(ec.env.Doc, test, ec.opts)
}

// cancelled reports the execution context's error, if any.
func (ec *execCtx) cancelled() error {
	if ec.ctx == nil {
		return nil
	}
	return ec.ctx.Err()
}

// Result is the outcome of a plan execution.
type Result struct {
	// Nodes is the result sequence: pre ranks in document order,
	// duplicate-free (XPath node-sequence semantics).
	Nodes []int32
	// Steps reports per-step statistics in evaluation order (union
	// branches concatenate).
	Steps []StepStats
	// Truncated reports that a RunLimit execution stopped at its limit
	// while further results may exist (the cursor was not drained).
	Truncated bool

	ops     []opStat // per-operator actuals, consumed by EXPLAIN
	replans []string // adaptive re-plan notes, consumed by EXPLAIN
}

// Plan is a compiled physical plan, bound to one document (via its
// Env) and one Options configuration. Plans are immutable after
// Compile and safe for concurrent Run calls.
type Plan struct {
	env      *Env
	opts     Options
	logical  *Logical
	root     op
	ops      []op        // all operators, indexed by op id
	metas    []*stepMeta // one per location step, in step order
	rewrites []string    // logical + physical rewrites applied

	// orderNotes lists the greedy ordering pass's fired decisions;
	// opOrder maps op ids to per-operator ordering annotations. Both
	// feed EXPLAIN only — ordering is excluded from Canon.
	orderNotes []string
	opOrder    map[int]string

	canonOnce sync.Once
	canon     string // built on first use (lazily: EvalString paths never need it)

	// display caches per-operator detail renderings (predicate and step
	// strings) so repeated Explain calls stop re-rendering shared
	// logical subtrees; queryStr caches the canonical query text.
	displayOnce sync.Once
	display     []string
	queryOnce   sync.Once
	queryStr    string
}

// Options returns the configuration the plan was compiled with.
func (p *Plan) Options() Options { return p.opts }

// Rewrites lists the rewrite rules applied to this plan, in
// application order.
func (p *Plan) Rewrites() []string { return p.rewrites }

// Query returns the source query text in canonical form.
func (p *Plan) Query() string {
	p.queryOnce.Do(func() { p.queryStr = p.logical.Query.String() })
	return p.queryStr
}

// Logical returns the (rewritten) logical plan the physical plan was
// compiled from.
func (p *Plan) Logical() *Logical { return p.logical }

// NumSteps returns the number of location steps across all union
// branches.
func (p *Plan) NumSteps() int { return len(p.metas) }

// Canon returns the canonical string of the optimized plan. Two plans
// with equal canonical strings produce identical result sequences on
// the same document: the string covers the operator tree, axes, node
// tests, predicates, strategy and pushdown policy, and deliberately
// excludes the execution-time attributes that cannot change results
// (parallel worker counts, index-vs-scan fragment source). The query
// server keys its result cache on it, so equivalent query texts share
// cache entries.
func (p *Plan) Canon() string {
	p.canonOnce.Do(func() { p.canon = buildCanon(p) })
	return p.canon
}

// Run executes the plan. The initial context seeds relative union
// branches (absolute branches always start at the document root);
// pass the document root for the conventional whole-document query.
func (p *Plan) Run(initial []int32) (*Result, error) {
	return p.RunCtx(nil, initial)
}

// RunCtx is Run with cancellation: the execution checks ctx at
// operator boundaries and inside per-node loops, returning ctx's
// error once it is cancelled. A nil ctx never cancels.
func (p *Plan) RunCtx(ctx context.Context, initial []int32) (*Result, error) {
	ec := p.newExecCtx(ctx, initial)
	nodes, err := p.root.run(ec)
	if err != nil {
		return nil, err
	}
	return &Result{Nodes: nodes, Steps: ec.steps, ops: ec.ops, replans: ec.replans}, nil
}

// newExecCtx builds the per-execution state shared by the
// materializing and streaming executors.
func (p *Plan) newExecCtx(ctx context.Context, initial []int32) *execCtx {
	ec := &execCtx{
		env:     p.env,
		opts:    &p.opts,
		initial: initial,
		ops:     make([]opStat, len(p.ops)),
		steps:   make([]StepStats, len(p.metas)),
		ctx:     ctx,
	}
	for i, m := range p.metas {
		ec.steps[i].Step = m.display
		ec.steps[i].Axis = m.axis
	}
	return ec
}

// RunRoot executes the plan with the document root as initial context
// (the conventional whole-document evaluation).
func (p *Plan) RunRoot() (*Result, error) {
	return p.Run([]int32{p.env.Doc.Root()})
}
