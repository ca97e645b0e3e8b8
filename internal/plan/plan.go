// Package plan reifies XPath query evaluation as an explicit
// logical → physical plan — the relational-planner discipline applied
// to the staircase join engine.
//
// The paper's core claim (Grust/van Keulen/Teubner, VLDB 2003) is that
// XPath axes become fast when the *whole step* is handed to one
// set-at-a-time operator. This package makes that explicit: a query is
// compiled into a typed logical plan (DocRoot, Step, Filter,
// Positional, Union, Dedup), rewritten by a small set of algebraic
// rules (the §4.4 "XPath rewriting laws"), and lowered to physical
// operators (IndexScan, ColumnScan, StaircaseJoin, SemiJoin,
// PredFilter, PosFilter, Merge) that execute directly against the
// internal/core staircase kernels and the internal/index tag/kind
// index. What used to be ad hoc decisions inside a recursive Eval —
// name/kind-test pushdown, join-variant selection, partition-parallel
// placement — are now inspectable attributes of plan operators,
// rendered by EXPLAIN in text and JSON form with per-operator fragment
// sources and cardinalities.
//
// The pipeline is
//
//	xpath.Query --BuildLogical--> *Logical --Rewrite--> (rules applied)
//	            --Compile(env)--> *Plan    --Run------> *Result
//
// BuildLogical and Rewrite are document-independent and can be cached
// per query text; Compile binds the logical plan to one document
// (fragment cardinalities, DocRoot semantics) and is cheap enough to
// run per evaluation. Plan.Canon returns a canonical string of the
// optimized plan: two queries with equal canonical strings produce
// identical results, which is what the query server keys its result
// cache on so that equivalent query texts share cache entries.
//
// Cost-model decisions that depend on the runtime context sequence
// (pushdown of a specific step, parallel worker fan-out) are resolved
// by the operators at execution time with exactly the bounds the
// legacy evaluator used, so plan-based execution is result- and
// report-identical to it; the plan records the candidate fragment scan
// and the policy, and EXPLAIN reports the decision actually taken.
package plan

import (
	"fmt"
	"sync"

	"staircase/internal/baseline"
	"staircase/internal/doc"
)

// Strategy selects the axis-step algorithm for partitioning axes.
type Strategy uint8

const (
	// Staircase is the paper's full configuration: staircase join with
	// estimation-based skipping.
	Staircase Strategy = iota
	// StaircaseSkip uses plain skipping (Algorithm 3).
	StaircaseSkip
	// StaircaseNoSkip uses the basic algorithm (Algorithm 2).
	StaircaseNoSkip
	// Naive evaluates one region query per context node and removes
	// duplicates afterwards (Experiment 1's strawman).
	Naive
	// SQL mimics the tree-unaware indexed plan of Figure 3.
	SQL
	// SQLWindow is SQL plus the Equation (1) window predicate (§2.1).
	SQLWindow
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Staircase:
		return "staircase"
	case StaircaseSkip:
		return "staircase-skip"
	case StaircaseNoSkip:
		return "staircase-noskip"
	case Naive:
		return "naive"
	case SQL:
		return "sql"
	case SQLWindow:
		return "sql-window"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// staircase reports whether the strategy is a staircase join variant.
func (s Strategy) staircase() bool {
	return s == Staircase || s == StaircaseSkip || s == StaircaseNoSkip
}

// Pushdown controls name-test pushdown for staircase strategies.
type Pushdown uint8

const (
	// PushAuto decides by tag selectivity (the cost-model heuristic).
	PushAuto Pushdown = iota
	// PushAlways forces pushdown whenever a name test is present.
	PushAlways
	// PushNever evaluates the join first and filters afterwards.
	PushNever
)

// String names the pushdown mode.
func (p Pushdown) String() string {
	switch p {
	case PushAuto:
		return "auto"
	case PushAlways:
		return "always"
	case PushNever:
		return "never"
	default:
		return fmt.Sprintf("Pushdown(%d)", uint8(p))
	}
}

// AutoParallelism requests one staircase-join worker per available CPU
// (runtime.GOMAXPROCS) when assigned to Options.Parallelism.
const AutoParallelism = -1

// Options configures plan compilation and execution. The zero value is
// the paper default: full staircase join with automatic pushdown,
// serial execution.
type Options struct {
	// Strategy selects the physical operator family for the four
	// partitioning axes.
	Strategy Strategy
	// Pushdown is the name/kind-test pushdown policy for staircase
	// strategies.
	Pushdown Pushdown
	// Parallelism is the worker count for partition-parallel staircase
	// joins: 0 or 1 evaluates serially, > 1 uses at most that many
	// workers, negative (canonically AutoParallelism) uses GOMAXPROCS.
	// The cost model may use fewer workers on steps too small to
	// amortise the goroutine fan-out. Only Run fans out: every cursor
	// (Cursor, RunLimit) runs the serial windowed kernels, so a limit
	// consumer keeps its early exit.
	Parallelism int
	// NoIndex disables the document's shared tag/kind index: pushdown
	// fragments are rebuilt with an O(n) column scan per step (the
	// ColumnScan operator). Results are identical; the knob exists for
	// ablation and the rescan-baseline benchmarks.
	NoIndex bool
	// NoValueIndex disables the document's value index: comparison and
	// contains() predicates rewritten to value semijoins fall back to
	// per-node predicate evaluation at execution time. Results are
	// identical (the canonical plan string does not change); the knob
	// exists for ablation and the value-rescan benchmarks.
	NoValueIndex bool
	// NoReorder disables the greedy ordering pass and mid-flight
	// adaptive re-planning: commutable predicate filters evaluate in
	// source order, semijoin probe directions stay fixed, and provably
	// empty intermediates are not short-circuited. Results are identical
	// (ordering is excluded from the canonical plan string); the knob
	// exists for ablation and the order benchmarks.
	NoReorder bool
}

// orDefault returns opts, or the zero default when nil.
func (o *Options) orDefault() *Options {
	if o == nil {
		return &Options{}
	}
	return o
}

// Env is the execution environment a plan binds to: the document plus
// the lazily built per-document runtime state the baseline operators
// need (the SQL baseline's B-trees). One Env is shared by every plan
// over a document; it is safe for concurrent use.
type Env struct {
	// Doc is the pre/post encoded document.
	Doc *doc.Document

	mu  sync.Mutex
	sql *baseline.SQLEngine
}

// NewEnv returns an environment over the document.
func NewEnv(d *doc.Document) *Env { return &Env{Doc: d} }

// SQL lazily builds and returns the B-tree indexes of the SQL baseline.
func (e *Env) SQL() *baseline.SQLEngine {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sql == nil {
		e.sql = baseline.NewSQLEngine(e.Doc)
	}
	return e.sql
}
