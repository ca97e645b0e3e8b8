// Value fragments: the ValueScan leaf that serves a comparison or
// contains() predicate's last step to a semijoin (semijoin.go).
//
//	Filter(S, [p/…/axis::t op lit])  =>  SemiJoin(S, ValueScan(t, op, lit), relation(p/…/axis))
//
// ValueScan resolves the predicate's last step to a pre-sorted node-list
// fragment: a range of the index's string or numeric partition (typed by
// the literal), put into document order and filtered by the step's node
// test, merged with the re-evaluated overflow nodes (values longer than
// the index key cap). A numeric range under a name test reads that
// name's block of the name-major numeric partition only.
//
// Compile builds a ValueScan only where the value index serves the
// plan: under Options.NoValueIndex, or over a document built without
// values, the same predicate compiles to a PredFilter, and Canon
// renders both alike.

package plan

import (
	"fmt"
	"strings"
	"sync"

	"staircase/internal/axis"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/vindex"
	"staircase/internal/xpath"
)

// valueScan is the value fragment leaf of a semijoin: the pre-sorted
// list of nodes matching axis-test + value predicate, served by the
// document's value index.
type valueScan struct {
	opBase
	// pa is the predicate path's axis; test its node test. The fragment
	// is filtered to nodes passing the test on that axis.
	pa   axis.Axis
	test xpath.NodeTest
	// contains selects contains(path, lit); otherwise op compares.
	contains bool
	op       xpath.CompareOp
	lit      string
	numeric  bool
	// The fragment is a pure function of the plan's document and
	// predicate (both immutable after Compile), so it is materialised
	// at most once per plan and shared read-only by every Run — the
	// range read and node-test filter price a prepared plan's first
	// execution, not each one.
	once sync.Once
	frag []int32
}

func (o *valueScan) kids() []planNode { return nil }

// nodes returns the fragment node list, always index-served. The
// returned slice is shared across executions: callers must not mutate
// it.
func (o *valueScan) nodes(d *doc.Document, opts *Options) (list []int32, indexed bool) {
	o.once.Do(func() { o.frag = o.materialize(d, d.ValueIndex(), opts) })
	return o.frag, true
}

// count materialises the fragment (the greedy ordering pass runs at
// compile time) and returns its exact size.
func (o *valueScan) count(d *doc.Document, opts *Options) int64 {
	list, _ := o.nodes(d, opts)
	return int64(len(list))
}

// valueIndexServes reports whether value fragments can be served: the
// index is enabled and the document carries values (ValueIndex is then
// non-nil).
func valueIndexServes(d *doc.Document, opts *Options) bool {
	return !opts.NoValueIndex && d.HasValues()
}

// valueTest reports whether a value fragment serves a last step's node
// test.
func valueTest(test xpath.NodeTest) bool {
	switch test.Kind {
	case xpath.TestName, xpath.TestAny, xpath.TestText, xpath.TestNode:
		return true
	}
	return false
}

// materialize computes the fragment from the value index: the keyed
// nodes the predicate selects plus the overflow nodes it matches, those
// passing the node test, in document order.
func (o *valueScan) materialize(d *doc.Document, ix *vindex.Index, opts *Options) []int32 {
	e, kind, name := emitFor(d, o.pa, o.test), d.KindSlice(), d.NameSlice()
	// Overflow nodes (values past the index key cap) re-evaluate per
	// node, test first so only candidate kinds pay the string rebuild.
	var over []int32
	for _, v := range ix.Overflow() {
		if e.Pass(kind[v], name[v]) && o.matches(d.StringValue(v)) {
			over = append(over, v)
		}
	}
	var keyed []int32
	keep := func(v int32) bool { return e.Pass(kind[v], name[v]) }
	switch {
	case o.contains:
		// ContainsSubstr returns a fresh slice in document order: filter
		// it in place.
		keyed = filterTest(d, o.pa, o.test, ix.ContainsSubstr(o.lit))
	case o.numeric:
		// A non-numeric number literal cannot occur (the parser marks
		// Numeric only for number tokens); no keyed node matches it.
		f, ok := vindex.ParseNumber(o.lit)
		switch {
		case !ok || e.Kinds == core.NoKinds:
		case e.ByName:
			// A name test reads its own name's block of the partition.
			keyed = ix.AppendNumeric(nil, valueOpFor(o.op), f, e.Name, keep)
		default:
			keyed = ix.AppendNumericAll(nil, valueOpFor(o.op), f, keep)
		}
	default:
		// A string range is a view of the index's node column grouped by
		// value.
		view, inOrder := ix.StringRange(valueOpFor(o.op), o.lit)
		switch {
		case inOrder:
			// One value group is in document order already.
			for _, v := range view {
				if e.Pass(kind[v], name[v]) {
					keyed = append(keyed, v)
				}
			}
		case e.ByName && e.Kinds == 1<<doc.Elem && !opts.NoIndex:
			// An element name test's nodes are its tag list: probe that
			// list against the view, reading no column.
			keyed = vindex.Intersect(nil, view, d.TagIndex().Tag(e.Name), d.Size())
		default:
			// Any other test, or one under NoIndex, reads the kind and name
			// columns in ascending pre order as the bitmap scan reaches them.
			keyed = vindex.Order(nil, view, d.Size(), keep)
		}
	}
	if len(over) == 0 {
		return keyed
	}
	return core.MergeOrSelf(keyed, over)
}

// matches applies the value predicate to one string value — the same
// semantics the index lookups implement over keyed values.
func (o *valueScan) matches(s string) bool {
	if o.contains {
		return strings.Contains(s, o.lit)
	}
	return xpath.CompareValue(s, o.op, o.lit, o.numeric)
}

// predString renders the predicate the scan serves (EXPLAIN/canon).
func (o *valueScan) predString() string {
	step := xpath.Step{Axis: o.pa, Test: o.test}
	if o.contains {
		return fmt.Sprintf("contains(%s, %q)", step, o.lit)
	}
	if o.numeric {
		return fmt.Sprintf("%s %s %s", step, o.op, o.lit)
	}
	return fmt.Sprintf("%s %s %q", step, o.op, o.lit)
}

// valueOpFor maps comparison operators onto value-index lookups ('!='
// is not range-servable and never reaches the rewrite).
func valueOpFor(op xpath.CompareOp) vindex.Op {
	switch op {
	case xpath.OpLt:
		return vindex.OpLt
	case xpath.OpLe:
		return vindex.OpLe
	case xpath.OpGt:
		return vindex.OpGt
	case xpath.OpGe:
		return vindex.OpGe
	default:
		return vindex.OpEq
	}
}
