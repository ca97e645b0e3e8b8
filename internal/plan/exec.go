// Plan execution: every run opens the root operator's cursor
// (cursor.go) and pulls node sequences through the operator tree,
// recording per-operator and per-step statistics for EXPLAIN and the
// engine's step reports.

package plan

import (
	"context"
	"slices"
	"sync"
	"time"

	"staircase/internal/axis"
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
	// Core holds staircase join work counters (partitioning axes only).
	Core core.Stats
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
	// probeDir records the semijoin probe direction taken: probeFragSweep
	// walks a climb's certified set, probeInputSeek probes each input
	// node into the fragment by binary search.
	probeDir int8
}

// Semijoin probe directions (opStat.probeDir).
const (
	probeUnset     int8 = iota
	probeFragSweep      // sweep: the climb's certified set drives the input
	probeInputSeek      // seek: each input node binary-probes the fragment
)

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
	// between batches and inside per-node loops, so server timeouts and
	// client disconnects stop running joins. nil means "never
	// cancelled".
	ctx context.Context
	// frags is the plan's fragment scans by node test, so the shared
	// partitioning helper reuses their memoised lists instead of
	// re-probing the index maps (or, under NoIndex, re-scanning the
	// columns) once per call.
	frags map[xpath.NodeTest]*fragScan
	// subs holds the execution each predicate sub-plan reuses for every
	// candidate node of this execution (predProg.evalSub).
	subs map[*predProg]*execCtx
	// curs keeps each operator's cursor for the next open of the same
	// operator, indexed by op id; nil unless the execution is reused
	// (a predicate sub-plan's, opened once per candidate node).
	curs []cursor
}

// fragList resolves the fragment list for a node test, serving it from
// the plan's memoised fragment scan of that test when it has one.
func (ec *execCtx) fragList(test xpath.NodeTest) (list []int32, indexed, ok bool) {
	if f := ec.frags[test]; f != nil {
		list, indexed = f.nodes(ec.env.Doc, ec.opts)
		return list, indexed, true
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

	ops []opStat // per-operator actuals, consumed by EXPLAIN
}

// Plan is a compiled physical plan, bound to one document (via its
// Env) and one Options configuration. Plans are immutable after
// Compile and safe for concurrent Run calls.
type Plan struct {
	env      *Env
	opts     Options
	logical  *Logical
	root     op
	ops      []planNode  // all operators, indexed by op id
	metas    []*stepMeta // one per location step, in step order
	rewrites []string    // logical + physical rewrites applied
	// frags holds one fragment scan per pushable node test, shared by
	// every operator of the plan that tests it.
	frags map[xpath.NodeTest]*fragScan

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

// Rewrites lists the rewrite rules applied to this plan, in
// application order.
func (p *Plan) Rewrites() []string { return p.rewrites }

// Query returns the source query text in canonical form.
func (p *Plan) Query() string {
	p.queryOnce.Do(func() { p.queryStr = p.logical.Query.String() })
	return p.queryStr
}

// Canon returns the canonical string of the optimized plan. Two plans
// with equal canonical strings produce identical result sequences on
// the same document: the string covers the operator tree, axes, node
// tests, predicates and pushdown policy, and deliberately excludes the
// execution-time attributes that cannot change results (index-vs-scan
// fragment source, ordering). The query server keys its result cache on it, so equivalent query texts share
// cache entries.
func (p *Plan) Canon() string {
	p.canonOnce.Do(func() { p.canon = buildCanon(p) })
	return p.canon
}

// Run executes the plan. The initial context seeds relative union
// branches (absolute branches always start at the document root);
// pass the document root for the conventional whole-document query.
func (p *Plan) Run(initial []int32) (*Result, error) {
	return p.RunLimit(nil, initial, 0)
}

// RunRoot executes the plan with the document root as initial context
// (the conventional whole-document evaluation).
func (p *Plan) RunRoot() (*Result, error) {
	return p.Run([]int32{p.env.Doc.Root()})
}

// RunLimit executes the plan and stops after limit result nodes: the
// streaming LIMIT operator. The result's Truncated field reports
// whether further results may exist (exact when the limit was hit
// mid-batch; conservatively true when the cursor stopped exactly at the
// limit). limit <= 0 drains the plan: the root cursor opens whole and
// hands over its result in one batch, which becomes Result.Nodes.
//
// The ctx checks run between batches and inside per-node loops; a
// cancelled ctx ends the run with its error, and a nil ctx never
// cancels.
func (p *Plan) RunLimit(ctx context.Context, initial []int32, limit int) (*Result, error) {
	whole := limit <= 0
	cur, err := p.open(ctx, initial, whole)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	// A whole batch is the caller's. A limited run's batches are valid
	// only until the next one: they are appended to nodes while it has
	// room (the limit, or 4096 nodes at most), kept as exact copies past
	// that, and the copies are joined once at the end. A large limited
	// result so costs two copies of itself, not append's doubling.
	var nodes []int32
	if !whole {
		nodes = make([]int32, 0, min(limit, 4096))
	}
	var more [][]int32
	n, truncated := 0, false
	for whole || n < limit {
		b, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if take := limit - n; !whole && len(b) > take {
			truncated, b = true, b[:take]
		}
		n += len(b)
		switch {
		case whole && nodes == nil:
			nodes = b
		case whole || len(more) == 0 && len(b) <= cap(nodes)-len(nodes):
			nodes = append(nodes, b...)
		default:
			more = append(more, slices.Clone(b))
		}
	}
	if len(more) > 0 {
		nodes = append(make([]int32, 0, n), nodes...)
		for _, c := range more {
			nodes = append(nodes, c...)
		}
	}
	if !truncated && !cur.Exhausted() {
		truncated = true // stopped exactly at the limit: more may exist
	}
	return &Result{Nodes: nodes, Steps: cur.ec.steps, Truncated: truncated, ops: cur.ec.ops}, nil
}

// RunLimitRoot is RunLimit from the document root.
func (p *Plan) RunLimitRoot(ctx context.Context, limit int) (*Result, error) {
	return p.RunLimit(ctx, []int32{p.env.Doc.Root()}, limit)
}

// newExecCtx builds the per-execution state.
func (p *Plan) newExecCtx(ctx context.Context, initial []int32) *execCtx {
	ec := &execCtx{
		env:     p.env,
		opts:    &p.opts,
		initial: initial,
		ops:     make([]opStat, len(p.ops)),
		steps:   make([]StepStats, len(p.metas)),
		ctx:     ctx,
		frags:   p.frags,
	}
	for i, m := range p.metas {
		ec.steps[i].Step = m.display
		ec.steps[i].Axis = m.axis
	}
	return ec
}
