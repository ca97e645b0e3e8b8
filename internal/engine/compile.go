package engine

import (
	"context"

	"staircase/internal/plan"
	"staircase/internal/xpath"
)

// Compiled is a parsed, reusable query handle: the AST plus the
// rewritten logical plan. Both are document-independent — parsing and
// the logical rewrites reference no document — so one Compiled can be
// prepared or evaluated many times, concurrently, and against
// different engines. Long-lived callers (the query server, benchmark
// loops) compile once and skip the per-request parser and rewriter
// work.
type Compiled struct {
	src     string
	q       xpath.Query
	logical *plan.Logical
}

// Compile parses a query (a location path, or a union of paths
// combined with '|') into a reusable handle, building and rewriting
// its logical plan.
func Compile(query string) (*Compiled, error) {
	q, err := xpath.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	l := plan.BuildLogical(q)
	plan.Rewrite(l)
	return &Compiled{src: query, q: q, logical: l}, nil
}

// Source returns the query text the handle was compiled from.
func (c *Compiled) Source() string { return c.src }

// Query returns the parsed form.
func (c *Compiled) Query() xpath.Query { return c.q }

// Logical returns the rewritten logical plan (shared, read-only).
func (c *Compiled) Logical() *plan.Logical { return c.logical }

// EvalCompiled evaluates a compiled query with the document root as the
// initial context, exactly as EvalString would for the same text.
func (e *Engine) EvalCompiled(c *Compiled, opts *Options) (*Result, error) {
	if opts != nil && opts.LegacyEval {
		return e.EvalQuery(c.q, []int32{e.d.Root()}, opts)
	}
	p, err := e.Prepare(c, opts)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// Prepared is a physical plan bound to one engine's document under one
// options configuration: the product of logical plan + optimizer.
// Prepared plans are immutable and safe for concurrent Run calls; the
// query server caches them per (document generation, options, query).
type Prepared struct {
	eng  *Engine
	pl   *plan.Plan
	opts Options
}

// Prepare compiles the query's logical plan into a physical plan for
// this engine's document.
func (e *Engine) Prepare(c *Compiled, opts *Options) (*Prepared, error) {
	if opts == nil {
		opts = &Options{}
	}
	pl, err := plan.Compile(e.env, c.logical, planOptions(opts))
	if err != nil {
		return nil, err
	}
	return &Prepared{eng: e, pl: pl, opts: *opts}, nil
}

// PrepareString parses, rewrites and prepares in one call.
func (e *Engine) PrepareString(query string, opts *Options) (*Prepared, error) {
	c, err := Compile(query)
	if err != nil {
		return nil, err
	}
	return e.Prepare(c, opts)
}

// Plan returns the underlying physical plan.
func (p *Prepared) Plan() *plan.Plan { return p.pl }

// Canon returns the canonical optimized-plan string — the result-cache
// key under which equivalent queries collide (see plan.Plan.Canon).
func (p *Prepared) Canon() string { return p.pl.Canon() }

// Rewrites lists the rewrite rules applied to this plan.
func (p *Prepared) Rewrites() []string { return p.pl.Rewrites() }

// Run executes the plan with the document root as initial context.
func (p *Prepared) Run() (*Result, error) {
	r, err := p.pl.RunRoot()
	if err != nil {
		return nil, err
	}
	return planResult(r), nil
}

// RunContext executes the plan with an explicit initial context
// (relative paths evaluate from these nodes; absolute paths still
// reset to the document root).
func (p *Prepared) RunContext(context []int32) (*Result, error) {
	r, err := p.pl.Run(context)
	if err != nil {
		return nil, err
	}
	return planResult(r), nil
}

// RunCtx executes the plan with the document root as initial context
// and cancellation: the execution checks ctx between operator batches
// and per-node loops, so server timeouts and client disconnects stop
// running joins.
func (p *Prepared) RunCtx(ctx context.Context) (*Result, error) {
	r, err := p.pl.RunCtx(ctx, []int32{p.eng.d.Root()})
	if err != nil {
		return nil, err
	}
	return planResult(r), nil
}

// EvalFirst executes the plan through the streaming cursor executor
// and stops after the first result node — the existence/top-1 probe.
// Equivalent to EvalLimit(ctx, 1).
func (p *Prepared) EvalFirst(ctx context.Context) (*Result, error) {
	return p.EvalLimit(ctx, 1)
}

// EvalLimit executes the plan through the streaming cursor executor,
// stopping after limit result nodes: the staircase kernels suspend
// mid-partition and the document regions beyond the limit are never
// scanned. Result.Nodes is a prefix of the full evaluation's nodes;
// Result.Truncated reports whether further results may exist. A
// limit <= 0 evaluates fully (identical to Run).
func (p *Prepared) EvalLimit(ctx context.Context, limit int) (*Result, error) {
	r, err := p.pl.RunLimitRoot(ctx, limit)
	if err != nil {
		return nil, err
	}
	return planResult(r), nil
}

// EvalLimitContext is EvalLimit with an explicit initial context.
func (p *Prepared) EvalLimitContext(ctx context.Context, nodes []int32, limit int) (*Result, error) {
	r, err := p.pl.RunLimit(ctx, nodes, limit)
	if err != nil {
		return nil, err
	}
	return planResult(r), nil
}

// Cursor opens a streaming execution of the plan from the document
// root: an iterator over the result in document-ordered batches. The
// cursor is single-use; the Prepared plan stays shareable.
func (p *Prepared) Cursor(ctx context.Context) (*plan.RunCursor, error) {
	return p.pl.CursorRoot(ctx)
}

// CursorContext is Cursor with an explicit initial context.
func (p *Prepared) CursorContext(ctx context.Context, nodes []int32) (*plan.RunCursor, error) {
	return p.pl.Cursor(ctx, nodes)
}

// Explain executes the plan and renders the optimized operator tree
// with per-operator fragment sources and actual cardinalities.
func (p *Prepared) Explain() (string, error) {
	r, err := p.pl.RunRoot()
	if err != nil {
		return "", err
	}
	return p.pl.ExplainText(r), nil
}

// ExplainJSON is Explain in machine-readable form.
func (p *Prepared) ExplainJSON() ([]byte, error) {
	r, err := p.pl.RunRoot()
	if err != nil {
		return nil, err
	}
	return p.pl.ExplainJSON(r)
}
