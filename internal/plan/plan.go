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
// index. What used to be an ad hoc decision inside a recursive Eval —
// name/kind-test pushdown — is now an inspectable attribute of plan
// operators, rendered by EXPLAIN in text and JSON form with
// per-operator fragment sources and cardinalities. Every staircase
// join runs the paper's full configuration, estimation-based skipping
// (Algorithm 4); the other skip rules are a kernel experiment that
// bench/ runs on core.Options.Variant.
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
// Every execution opens the root operator's cursor: Run drains it,
// RunLimit and Cursor pull what they need (cursor.go). Each decision an
// operator takes is one a bounded window can apply — push a node test
// when the index serves its fragment, probe a staircase semijoin by
// input seek, pick a climb's direction from its compile-time input
// bound — and EXPLAIN reports the decision taken.
package plan

import (
	"fmt"

	"staircase/internal/doc"
)

// Pushdown controls name-test pushdown.
type Pushdown uint8

const (
	// PushAuto pushes when the shared tag/kind index serves the
	// fragment.
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

// Options configures plan compilation and execution. The zero value is
// the paper default: automatic pushdown with both indexes.
type Options struct {
	// Pushdown is the name/kind-test pushdown policy.
	Pushdown Pushdown
	// NoIndex disables the document's shared tag/kind index: pushdown
	// fragments are rebuilt with an O(n) column scan per step (the
	// ColumnScan operator). Results are identical; the knob exists for
	// ablation and the rescan-baseline benchmarks.
	NoIndex bool
	// NoValueIndex disables the document's value index: comparison and
	// contains() predicates compile to per-node predicate filters instead
	// of semijoins over value fragments. Results are identical (the
	// canonical plan string does not change); the knob exists for
	// ablation and the value-rescan benchmarks.
	NoValueIndex bool
	// NoReorder disables the greedy ordering pass: commutable
	// predicate filters evaluate in source order, and provably empty
	// intermediates are not short-circuited. Results are identical
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

// Env is the execution environment a plan binds to. One Env is shared
// by every plan over a document; it is immutable and safe for
// concurrent use.
type Env struct {
	// Doc is the pre/post encoded document.
	Doc *doc.Document
}

// NewEnv returns an environment over the document.
func NewEnv(d *doc.Document) *Env { return &Env{Doc: d} }
