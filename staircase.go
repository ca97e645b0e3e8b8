// Package staircase is the public face of the staircase join XPath
// accelerator (Grust, van Keulen, Teubner: "Staircase Join: Teach a
// Relational DBMS to Watch its (Axis) Steps", VLDB 2003).
//
// It loads XML documents (or the repository's SCJ binary encoding)
// into the pre/post plane, compiles XPath queries into explicit
// logical → physical plans, and executes every location step with a
// set-at-a-time operator — the staircase join with pruning,
// partitioning and skipping — instead of node-at-a-time
// interpretation.
//
// # Quick start
//
//	d, err := staircase.Open("auction.xml")
//	if err != nil { ... }
//	res, err := d.Query("//open_auction[bidder]/current", nil)
//	for _, v := range res.Nodes {
//		fmt.Println(d.StringValue(v))
//	}
//
// # Plans
//
// Prepare compiles a query once into an optimized physical plan that
// can be run many times and inspected:
//
//	p, err := d.Prepare("/descendant::increase/ancestor::bidder", nil)
//	res, err := p.Run()
//	fmt.Println(p.MustExplain()) // the optimized operator tree
//
// Plan.Canon returns the canonical optimized-plan string: two queries
// with equal canonical strings compute identical results, which is
// what the query server keys its result cache on.
//
// # Streaming
//
// Plans also execute through a cursor/batch streaming executor with
// early termination: Plan.RunLimit stops after the first k results
// (the staircase kernels suspend mid-partition and never scan the
// rest), and Plan.Cursor iterates the full result in bounded
// document-ordered batches:
//
//	top, err := p.RunLimit(10)      // first 10 results only
//	cur, err := p.Cursor()          // bounded-memory iteration
//	for {
//		batch, err := cur.Next()
//		if err != nil || batch == nil { break }
//		...
//	}
//
// # Serving
//
// NewCatalog and NewServer expose the multi-document HTTP query
// service that cmd/xpathd wraps.
//
// # Document-node semantics
//
// The encoding does not materialise the XPath document node above the
// root element. Absolute paths give their *first* step document-node
// semantics (so "/child::root", "/descendant::x" and "/" behave per
// spec), but the descendant-or-self::node() step that "//" abbreviates
// produces a set without the document node, so "//x" never returns
// the root element even when it matches — it differs from
// "/descendant::x" exactly there, and the two deliberately compile to
// distinct canonical plans. This engine-wide convention predates the
// planner and is pinned by the differential test suite.
package staircase

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"staircase/internal/doc"
	"staircase/internal/engine"
	"staircase/internal/plan"
)

// Document is an immutable pre/post encoded document (or collection)
// together with its plan environment. Documents are safe for
// concurrent use: queries never lock.
type Document struct {
	d   *doc.Document
	env *plan.Env
}

// wrap builds the public handle around an internal document.
func wrap(d *doc.Document) *Document {
	return &Document{d: d, env: plan.NewEnv(d)}
}

// Open loads a document from a file. The format is sniffed: files
// beginning with the SCJ1/SCJ2 magic deserialize the binary encoding
// (an SCJ2 file carries its tag/kind index section), everything else
// shreds as XML text.
func Open(path string) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Load reads a document from a reader, sniffing the SCJ1/SCJ2 binary
// magic exactly like Open.
func Load(r io.Reader) (*Document, error) {
	d, _, err := doc.Load(r, doc.Skip{})
	if err != nil {
		return nil, err
	}
	return wrap(d), nil
}

// ParseXML shreds an XML string (tests, examples, small documents).
func ParseXML(s string) (*Document, error) {
	return Load(strings.NewReader(s))
}

// LoadCollection shreds several XML documents under one virtual root
// (the paper's footnote 1: a multi-document database in one plane),
// so a single index and a single staircase join serve the whole
// collection.
func LoadCollection(readers ...io.Reader) (*Document, error) {
	d, err := doc.ShredCollection(readers)
	if err != nil {
		return nil, err
	}
	return wrap(d), nil
}

// WriteBinary serializes the document in the SCJ2 binary encoding,
// including the tag/kind index section, for fast reloads via Open.
func (d *Document) WriteBinary(w io.Writer) error { return d.d.WriteBinary(w) }

// NumNodes returns the number of nodes in the document.
func (d *Document) NumNodes() int { return d.d.Size() }

// Height returns the height of the document tree.
func (d *Document) Height() int32 { return d.d.Height() }

// EncodedBytes returns the in-memory footprint of the structural
// columns.
func (d *Document) EncodedBytes() int64 { return d.d.EncodedBytes() }

// Root returns the preorder rank of the root node.
func (d *Document) Root() int32 { return d.d.Root() }

// Kind returns the node kind of the node with preorder rank v.
func (d *Document) Kind(v int32) NodeKind { return d.d.KindOf(v) }

// Name returns the tag (or attribute/PI target) name of node v.
func (d *Document) Name(v int32) string { return d.d.Name(v) }

// Value returns the literal value of a text, attribute, comment or PI
// node.
func (d *Document) Value(v int32) string { return d.d.Value(v) }

// StringValue returns the XPath string-value of node v (concatenated
// descendant text).
func (d *Document) StringValue(v int32) string { return d.d.StringValue(v) }

// XML serializes the subtree below v as XML text.
func (d *Document) XML(v int32) string { return d.d.XML(v) }

// Post returns the postorder rank of node v.
func (d *Document) Post(v int32) int32 { return d.d.Post(v) }

// Level returns the tree depth of node v.
func (d *Document) Level(v int32) int32 { return d.d.Level(v) }

// SubtreeSize returns the number of nodes below v (Equation 1).
func (d *Document) SubtreeSize(v int32) int32 { return d.d.SubtreeSize(v) }

// Parent returns the preorder rank of v's parent, or NoParent for the
// root.
func (d *Document) Parent(v int32) int32 { return d.d.Parent(v) }

// Children returns the element/text/comment/PI children of v in
// document order.
func (d *Document) Children(v int32) []int32 { return d.d.Children(v) }

// Attributes returns the attribute nodes of v in document order.
func (d *Document) Attributes(v int32) []int32 { return d.d.Attributes(v) }

// Stats computes structural statistics of the document.
func (d *Document) Stats() DocStats { return d.d.ComputeStats() }

// Query parses, plans and runs a query with the document root as
// context. opts selects the pushdown policy and the ablation knobs; nil
// is the paper default (staircase join with estimation-based skipping
// and automatic pushdown). Options.LegacyEval answers with the
// reference evaluator instead, which reads no index and reports no
// Steps.
func (d *Document) Query(query string, opts *Options) (*Result, error) {
	if opts != nil && opts.LegacyEval {
		return engine.New(d.d).EvalString(query, opts)
	}
	p, err := d.prepare(query, opts)
	if err != nil {
		return nil, err
	}
	return p.RunRoot()
}

// QueryFrom runs a query with an explicit initial context (relative
// paths evaluate from these nodes; absolute paths reset to the root).
// The context is normalised to a document-ordered, duplicate-free
// sequence first — the precondition every set-at-a-time operator
// relies on.
func (d *Document) QueryFrom(context []int32, query string, opts *Options) (*Result, error) {
	p, err := d.prepare(query, opts)
	if err != nil {
		return nil, err
	}
	return p.Run(normalizeContext(context))
}

// Prepare compiles a query into an optimized physical plan bound to
// this document: parse → logical plan → rewrite rules → operator
// selection. The plan is immutable and safe for concurrent Run calls.
func (d *Document) Prepare(query string, opts *Options) (*Plan, error) {
	p, err := d.prepare(query, opts)
	if err != nil {
		return nil, err
	}
	return &Plan{p: p}, nil
}

// prepare compiles a query into the plan package's physical plan.
func (d *Document) prepare(query string, opts *Options) (*plan.Plan, error) {
	po := engine.PlanOptions(opts)
	return plan.Prepare(d.env, query, &po)
}

// Explain prepares and explains in one call: the optimized plan tree
// in text form, with per-operator fragment sources and cardinalities.
func (d *Document) Explain(query string, opts *Options) (string, error) {
	p, err := d.Prepare(query, opts)
	if err != nil {
		return "", err
	}
	return p.Explain()
}

// ExplainJSON is Explain in machine-readable form.
func (d *Document) ExplainJSON(query string, opts *Options) ([]byte, error) {
	p, err := d.Prepare(query, opts)
	if err != nil {
		return nil, err
	}
	return p.ExplainJSON()
}

// Plan is a compiled, optimized physical plan bound to one Document.
type Plan struct {
	p *plan.Plan
}

// Run executes the plan with the document root as initial context.
func (p *Plan) Run() (*Result, error) { return p.p.RunRoot() }

// RunFrom executes the plan with an explicit initial context. The
// context is normalised to a document-ordered, duplicate-free
// sequence first (the operators' precondition), so callers may pass
// nodes in any order.
func (p *Plan) RunFrom(context []int32) (*Result, error) {
	return p.p.Run(normalizeContext(context))
}

// RunLimit executes the plan through the streaming cursor executor
// and stops after limit result nodes. The staircase kernels suspend
// as soon as the limit is reached, so `[1]`-style probes, existence
// checks and top-k clients never pay for the full result.
// Result.Nodes is a prefix of Run's nodes; Result.Truncated reports
// whether further results may exist. limit <= 0 evaluates fully.
func (p *Plan) RunLimit(limit int) (*Result, error) {
	return p.p.RunLimitRoot(context.Background(), limit)
}

// RunLimitContext is RunLimit with cancellation: the execution checks
// ctx between batches and stops early when it is cancelled.
func (p *Plan) RunLimitContext(ctx context.Context, limit int) (*Result, error) {
	return p.p.RunLimitRoot(ctx, limit)
}

// Cursor opens a streaming execution of the plan from the document
// root: an iterator over the result sequence in document-ordered
// batches with bounded memory. The cursor is single-use and not safe
// for concurrent use; the Plan itself stays shareable.
func (p *Plan) Cursor() (*Cursor, error) {
	return p.CursorContext(context.Background())
}

// CursorContext is Cursor with cancellation.
func (p *Plan) CursorContext(ctx context.Context) (*Cursor, error) {
	rc, err := p.p.CursorRoot(ctx)
	if err != nil {
		return nil, err
	}
	return &Cursor{rc: rc}, nil
}

// Cursor is an open streaming plan execution: repeated Next calls
// yield the result sequence in document-ordered batches; stopping
// early (Close without draining) leaves the skipped document regions
// unscanned.
type Cursor struct {
	rc *plan.RunCursor
}

// Next returns the next batch of result nodes (preorder ranks,
// strictly increasing, valid until the following Next call), or nil
// once the result is exhausted.
func (c *Cursor) Next() ([]int32, error) { return c.rc.Next() }

// Seek hints that the caller will ignore result nodes with preorder
// ranks below pre: subsequent batches may omit them, and the
// underlying staircase kernels jump their scans (or binary-search
// their index fragments) forward instead of producing them.
func (c *Cursor) Seek(pre int32) { c.rc.Seek(pre) }

// Exhausted reports whether the cursor delivered its complete result.
func (c *Cursor) Exhausted() bool { return c.rc.Exhausted() }

// Close releases the cursor. Idempotent; draining Next to nil closes
// implicitly.
func (c *Cursor) Close() { c.rc.Close() }

// normalizeContext sorts and deduplicates a caller-provided context
// without mutating the caller's slice.
func normalizeContext(context []int32) []int32 {
	for i := 1; i < len(context); i++ {
		if context[i] <= context[i-1] {
			c := append([]int32(nil), context...)
			sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
			out := c[:0]
			for i, v := range c {
				if i > 0 && v == c[i-1] {
					continue
				}
				out = append(out, v)
			}
			return out
		}
	}
	return context
}

// Canon returns the canonical optimized-plan string. Two plans with
// equal canonical strings produce identical results on the same
// document; equivalent query spellings canonicalise identically.
func (p *Plan) Canon() string { return p.p.Canon() }

// Rewrites lists the rewrite rules the optimizer applied, in
// application order.
func (p *Plan) Rewrites() []string { return p.p.Rewrites() }

// Explain executes the plan and renders the optimized operator tree
// with actual per-operator cardinalities.
func (p *Plan) Explain() (string, error) {
	r, err := p.p.RunRoot()
	if err != nil {
		return "", err
	}
	return p.p.ExplainText(r), nil
}

// MustExplain is Explain for examples and diagnostics; it panics on
// evaluation errors.
func (p *Plan) MustExplain() string {
	out, err := p.Explain()
	if err != nil {
		panic(fmt.Sprintf("staircase: explain: %v", err))
	}
	return out
}

// ExplainJSON executes the plan and returns the operator tree in JSON
// form.
func (p *Plan) ExplainJSON() ([]byte, error) {
	r, err := p.p.RunRoot()
	if err != nil {
		return nil, err
	}
	return p.p.ExplainJSON(r)
}
