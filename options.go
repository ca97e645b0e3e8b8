package staircase

import (
	"staircase/internal/doc"
	"staircase/internal/engine"
	"staircase/internal/plan"
	"staircase/internal/xpath"
)

// Options configures query planning and execution. The zero value (or
// a nil *Options) is the paper default: full staircase join with
// automatic name-test pushdown, shared tag/kind index enabled.
type Options = engine.Options

// Strategy once selected the staircase join's skip rule. It is kept
// only so that existing callers still compile.
//
// Deprecated: Strategy is ignored. Queries always run estimation-based
// skipping (Algorithm 4), and Options.LegacyEval runs no staircase join:
// it answers with the reference evaluator. Strategy goes with
// LegacyEval.
//
//lint:ignore SA1019 the deprecated alias names the deprecated type
type Strategy = engine.Strategy

// Deprecated: the Strategy values are ignored; see Strategy.
//
//lint:ignore SA1019 the deprecated aliases name the deprecated values
const (
	Staircase       = engine.Staircase
	StaircaseSkip   = engine.StaircaseSkip
	StaircaseNoSkip = engine.StaircaseNoSkip
)

// PushdownMode controls name/kind-test pushdown.
type PushdownMode = engine.Pushdown

const (
	// PushAuto pushes when the shared index serves the fragment.
	PushAuto = engine.PushAuto
	// PushAlways forces pushdown whenever the test is servable.
	PushAlways = engine.PushAlways
	// PushNever evaluates the join first and filters afterwards.
	PushNever = engine.PushNever
)

// Query limits: a query that nests predicates ([...], not(...)) deeper
// than MaxQueryDepth, or holds more than MaxQueryTerms location steps
// and predicate terms, is rejected with a *QueryLimitError before it is
// planned.
const (
	MaxQueryDepth = xpath.MaxDepth
	MaxQueryTerms = xpath.MaxTerms
)

// QueryLimitError reports a query past MaxQueryDepth or MaxQueryTerms.
type QueryLimitError = xpath.LimitError

// Result is the outcome of a query: the node sequence (preorder
// ranks, document order, duplicate-free) plus per-step statistics.
type Result = plan.Result

// StepReport carries the per-location-step statistics of a Result:
// cardinalities, the pushdown decision, and the staircase join work
// counters.
type StepReport = plan.StepStats

// NodeKind classifies document nodes (element, attribute, text,
// comment, processing instruction).
type NodeKind = doc.Kind

const (
	// ElemNode is an element node.
	ElemNode = doc.Elem
	// AttrNode is an attribute node.
	AttrNode = doc.Attr
	// TextNode is a text node.
	TextNode = doc.Text
	// CommentNode is a comment node.
	CommentNode = doc.Comment
	// PINode is a processing-instruction node.
	PINode = doc.PI
	// VRootNode is the virtual root of a document collection.
	VRootNode = doc.VRoot
)

// NoParent is the Parent value of the root node.
const NoParent = doc.NoParent

// DocStats summarises document structure (node counts per kind,
// height, fanout, tag histogram).
type DocStats = doc.Stats
