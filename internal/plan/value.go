// The value-semijoin rewrite: comparison and contains() predicates
// over a relative step — or a chain of child steps ending in a child
// or attribute step — evaluate set-at-a-time against the document's
// value index instead of one sub-path evaluation per candidate node.
//
//	Filter(S, [axis::t op lit])      =>  ValueSemiJoin(S, axis, ValueScan(t, op, lit))
//	Filter(S, [contains(axis::t,l)]) =>  ValueSemiJoin(S, axis, ValueScan(t, contains l))
//	Filter(S, [p/…/axis::t op lit])  =>  ValueSemiJoin(S, p/…/axis, ValueScan(t, op, lit))
//
// ValueScan resolves the predicate's last step to a pre-sorted node-list
// fragment: a range of the index's string or numeric partition (typed by
// the literal), put into document order through a pre bitmap and filtered
// by the step's node test, merged with the re-evaluated overflow nodes
// (values longer than the index key cap). ValueSemiJoin then keeps the
// input nodes that stand in the predicate axis relation to the fragment,
// decided per input node by binary search over the fragment — the
// exists-semijoin discipline extended to value predicates. A chain's
// prefix steps are decided by climbing the parent column from each
// fragment node, one hop per step, testing each node on the way.
//
// The rewrite is applied unconditionally for eligible predicates, so
// the canonical plan string is independent of index availability:
// when the execution environment has no value index (Options.
// NoValueIndex, or a document built without values), the operator
// falls back to per-node predicate evaluation at execution time and
// results are identical by construction.

package plan

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"staircase/internal/axis"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/vindex"
	"staircase/internal/xpath"
)

// valueScan is the fragment leaf of a value semijoin: the pre-sorted
// list of nodes matching axis-test + value predicate, served by the
// document's value index. It appears in the plan tree as a leaf input
// of its semijoin.
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

func (o *valueScan) kids() []op { return nil }

func (o *valueScan) run(ec *execCtx) ([]int32, error) {
	list, _ := o.resolve(ec)
	// Callers own run results; the memoised fragment is shared.
	return append([]int32(nil), list...), nil
}

func (o *valueScan) open(ec *execCtx) (cursor, error) {
	list, _ := o.resolve(ec)
	return &sliceCursor{nodes: append([]int32(nil), list...)}, nil
}

// resolve returns the fragment node list, or ok=false when the value
// index cannot serve this execution (disabled by Options.NoValueIndex,
// or the document was built without values) and the semijoin must fall
// back to per-node evaluation. The returned slice is shared across
// executions: callers must not mutate it.
func (o *valueScan) resolve(ec *execCtx) (list []int32, ok bool) {
	return o.resolveWith(ec.env.Doc, ec.opts)
}

// resolveWith is resolve without an execution context (the greedy
// ordering pass resolves resident fragments at compile time).
func (o *valueScan) resolveWith(d *doc.Document, opts *Options) (list []int32, ok bool) {
	if !valueIndexServes(d, opts) {
		return nil, false
	}
	o.once.Do(func() { o.frag = o.materialize(d, d.ValueIndex(), opts) })
	return o.frag, true
}

// valueIndexServes reports whether value fragments can be served: the
// index is enabled and the document carries values (ValueIndex is then
// non-nil).
func valueIndexServes(d *doc.Document, opts *Options) bool {
	return !opts.NoValueIndex && d.HasValues()
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
	if o.contains {
		// ContainsSubstr returns a fresh slice in document order: filter
		// it in place.
		keyed = filterTest(d, o.pa, o.test, ix.ContainsSubstr(o.lit))
	} else {
		// A range is a view of the index's node column grouped by value.
		var view []int32
		inOrder := true
		if !o.numeric {
			view, inOrder = ix.StringRange(valueOpFor(o.op), o.lit)
		} else if f, okf := vindex.ParseNumber(o.lit); okf {
			view, inOrder = ix.NumericRange(valueOpFor(o.op), f)
		}
		// A non-numeric number literal cannot occur (the parser marks
		// Numeric only for number tokens); no keyed node matches it.
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
			keyed = vindex.Order(nil, view, d.Size(), func(v int32) bool { return e.Pass(kind[v], name[v]) })
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

// valueSemiJoinOp keeps the input nodes that have at least one
// fragment node on the predicate's axis, probing the value fragment
// per input node by binary search (set-at-a-time over the fragment,
// one probe per candidate instead of one sub-path evaluation per
// candidate). When the fragment cannot be served it degrades to the
// compiled predicate program, node at a time.
type valueSemiJoinOp struct {
	filterBase
	// pred is the original predicate rendering (for EXPLAIN); path its
	// path, which EXPLAIN names when it has more than one step.
	pred string
	path xpath.Path
	// pa is the axis of the path's last step, which the probes decide;
	// up holds the tests of the child steps before it, innermost first
	// (see climb).
	pa   axis.Axis
	up   []core.Emit
	scan *valueScan
	// prog is the per-node fallback program, compiled only when the value
	// index cannot serve (NoValueIndex, value-less documents).
	prog *predProg
}

func (o *valueSemiJoinOp) kids() []op { return []op{o.in, o.scan} }

func (o *valueSemiJoinOp) run(ec *execCtx) ([]int32, error) {
	in, err := o.in.run(ec)
	if err != nil {
		return nil, err
	}
	if err := ec.cancelled(); err != nil {
		return nil, err
	}
	st := &ec.steps[o.meta.ord-1]
	ost := &ec.ops[o.id]
	start := time.Now()
	list, indexed := o.scan.resolve(ec)
	ost.indexed = indexed
	d := ec.env.Doc
	var out []int32
	if indexed && !ec.opts.NoReorder && len(list) > 0 && probeFromInput(len(list), len(in)) {
		// Fragment-side direction: the fragment is far smaller than the
		// input, so derive the certified context nodes from the fragment
		// (the inverse image of valueQualifies) and intersect with the
		// input instead of probing every input node.
		ost.probeDir = probeFragSweep
		out = intersectSorted(in, valueCandidates(d, o.pa, o.up, list))
	} else {
		if indexed {
			ost.probeDir = probeInputSeek
		}
		out = in[:0]
		for i, v := range in {
			if i&1023 == 0 {
				if err := ec.cancelled(); err != nil {
					return nil, err
				}
			}
			var ok bool
			if indexed {
				ok = valueQualifies(d, o.pa, o.up, list, v)
			} else {
				ok, err = o.prog.holds(ec, v)
				if err != nil {
					return nil, err
				}
			}
			if ok {
				out = append(out, v)
			}
		}
	}
	st.Duration += time.Since(start)
	st.OutputSize = len(out)
	ost.record(len(in), len(out))
	ost.fragSize = len(list)
	return out, nil
}

// valueQualifies decides whether context node c has a fragment node on
// the predicate axis: binary search over the pre-sorted fragment plus
// Equation (1) subtree windows (attributes are inside their element's
// window, so the child/attribute probes scan the fragment∩subtree
// slice, climbing from each node to see whether it reaches c).
func valueQualifies(d *doc.Document, pa axis.Axis, up []core.Emit, list []int32, c int32) bool {
	switch pa {
	case axis.Self:
		i := searchNodes(list, c)
		return i < len(list) && list[i] == c
	case axis.Descendant:
		i := searchNodes(list, c+1)
		return i < len(list) && list[i] <= c+d.SubtreeSize(c)
	case axis.DescendantOrSelf:
		i := searchNodes(list, c)
		return i < len(list) && list[i] <= c+d.SubtreeSize(c)
	default: // axis.Child, axis.Attribute
		end := c + d.SubtreeSize(c)
		for i := searchNodes(list, c+1); i < len(list) && list[i] <= end; i++ {
			if climb(d, up, list[i]) == c {
				return true
			}
		}
		return false
	}
}

// climb returns the one context node fragment node f can certify
// through a child/attribute step behind the child steps whose tests up
// holds, innermost first: the parent column followed one hop per step,
// every node reached passing its step's test, then one hop more. The
// hop count is fixed by the path, so the answer is exact; doc.NoParent
// when a test fails or the climb leaves the document.
func climb(d *doc.Document, up []core.Emit, f int32) int32 {
	p := d.Parent(f)
	for _, e := range up {
		if p == doc.NoParent || !e.Pass(d.KindOf(p), d.NameID(p)) {
			return doc.NoParent
		}
		p = d.Parent(p)
	}
	return p
}

// valueCandidates derives, from the fragment nodes, every context node
// the predicate axis could certify — the inverse image of
// valueQualifies. Self: the fragment node itself; child/attribute: the
// node its climb reaches; descendant: its proper ancestors (the parent
// chain); descendant-or-self: itself plus the chain.
func valueCandidates(d *doc.Document, pa axis.Axis, up []core.Emit, list []int32) []int32 {
	var cands []int32
	for _, f := range list {
		switch pa {
		case axis.Self:
			cands = append(cands, f)
		case axis.Descendant:
			for p := d.Parent(f); p != doc.NoParent; p = d.Parent(p) {
				cands = append(cands, p)
			}
		case axis.DescendantOrSelf:
			cands = append(cands, f)
			for p := d.Parent(f); p != doc.NoParent; p = d.Parent(p) {
				cands = append(cands, p)
			}
		default: // axis.Child, axis.Attribute
			if p := climb(d, up, f); p != doc.NoParent {
				cands = append(cands, p)
			}
		}
	}
	return sortDedup(cands)
}

// intersectSorted intersects two strictly increasing sequences,
// writing the result into a's prefix (a is caller-owned).
func intersectSorted(a, b []int32) []int32 {
	out := a[:0]
	if len(b)*16 < len(a) {
		// b is tiny: binary-probe a for each b member. Writes trail the
		// read position (the k-th match sits at index >= k), so the
		// in-place prefix never clobbers unread entries.
		pos := 0
		for _, v := range b {
			i := pos + searchNodes(a[pos:], v)
			if i < len(a) && a[i] == v {
				out = append(out, v)
				i++
			}
			pos = i
		}
		return out
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func (o *valueSemiJoinOp) open(ec *execCtx) (cursor, error) {
	in, err := o.in.open(ec)
	if err != nil {
		return nil, err
	}
	st := &ec.steps[o.meta.ord-1]
	ost := &ec.ops[o.id]
	ost.ran = true
	c := &valueSemiJoinCursor{
		ec: ec, o: o, st: st, ost: ost, in: in, d: ec.env.Doc,
	}
	if list, indexed := o.scan.resolve(ec); indexed {
		c.indexed = true
		c.list = list
		ost.indexed = true
		ost.fragSize = len(list)
		ost.probeDir = probeInputSeek // streaming is point-probe by nature
		if len(list) > 0 {
			c.spanHi = list[len(list)-1]
			if o.pa == axis.Self {
				// Only fragment members themselves qualify: input below
				// the span start never can.
				c.minSeek = list[0]
			}
		}
	}
	return c, nil
}

// valueSemiJoinCursor streams the value semijoin: input batches filter
// in place against the fragment probes, with seek hints from the
// fragment span — once the input passes the last fragment node, no
// later context node can have a fragment node on self, child,
// attribute or descendant axes, and the cursor stops pulling input
// entirely (the staircase kernels upstream never scan the rest of the
// document). The fallback mode filters with the predicate program,
// node at a time, and never terminates early.
type valueSemiJoinCursor struct {
	ec  *execCtx
	o   *valueSemiJoinOp
	st  *StepStats
	ost *opStat
	in  cursor
	d   *doc.Document

	indexed bool
	list    []int32
	minSeek int32
	spanHi  int32
	done    bool
}

func (c *valueSemiJoinCursor) next(seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	if c.indexed && len(c.list) == 0 {
		c.done = true
		return nil, nil
	}
	if err := c.ec.cancelled(); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() { c.st.Duration += time.Since(start) }()
	for {
		s := seek
		if c.indexed && c.minSeek > s {
			s = c.minSeek
		}
		b, err := c.in.next(s)
		if err != nil {
			return nil, err
		}
		if b == nil {
			c.done = true
			return nil, nil
		}
		// Filter in place: b is the producing operator's batch buffer,
		// released to us until our next pull.
		out := b[:0]
		for _, v := range b {
			var ok bool
			if c.indexed {
				ok = valueQualifies(c.d, c.o.pa, c.o.up, c.list, v)
			} else {
				ok, err = c.o.prog.holds(c.ec, v)
				if err != nil {
					return nil, err
				}
			}
			if ok {
				out = append(out, v)
			}
		}
		c.ost.in += len(b)
		c.st.InputSize = c.ost.in
		// Every supported predicate path looks at pre ranks >= the
		// context node (self, child, attribute, descendant(-or-self),
		// child chains): past the fragment's last node nothing further
		// qualifies.
		if c.indexed && b[len(b)-1] >= c.spanHi {
			c.done = true
		}
		if len(out) > 0 {
			c.ost.out += len(out)
			c.st.OutputSize = c.ost.out
			return out, nil
		}
		if c.done {
			return nil, nil
		}
	}
}

func (c *valueSemiJoinCursor) close() { c.in.close() }
