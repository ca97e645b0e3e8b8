// Physical operators. A compiled plan is a tree of ops; each op opens
// a cursor over its input operator's cursor and transforms what it
// pulls (cursor.go). Operator kinds:
//
//	Source         initial context ([root] or the caller's nodes)
//	StaircaseJoin  one partitioning-axis step (descendant, ancestor,
//	               following, preceding, and the or-self variants)
//	               via the core staircase join kernels; carries an
//	               optional fragment scan (IndexScan/ColumnScan) as
//	               the §4.4 name/kind-test pushdown candidate
//	AxisStep       the remaining axes: positional parent/child/sibling
//	               and attribute lookups over the encoding's columns
//	SemiJoin       a predicate a fragment serves: keeps the input nodes
//	               a fragment node certifies through a staircase or a
//	               parent-column climb, set-at-a-time (semijoin.go)
//	PredFilter     any other non-positional predicate, node at a time
//	PosFilter      a whole step with position-sensitive predicates,
//	               context node at a time with proximity positions
//	Merge          the '|' union merge (document order, dedup)
//
// IndexScan, ColumnScan and ValueScan are the fragment leaves of joins
// and semijoins: their operators read them through nodes(), and they
// appear in the tree for EXPLAIN only.

package plan

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"staircase/internal/axis"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/xpath"
)

// planNode is one operator of the plan tree, as the op table and
// EXPLAIN see it.
type planNode interface {
	// kids returns the input operators (primary input first).
	kids() []planNode
	// opID is the operator's index into the plan's op table.
	opID() int
	// setID assigns the id at compile time.
	setID(int)
}

// op is an executable operator: a plan node with a cursor.
type op interface {
	planNode
	// open returns a cursor over the operator's result, whole or
	// streaming (cursor.go). The cursor owns its input cursors.
	open(ec *execCtx, whole bool) (cursor, error)
}

// opBase carries the plan-assigned operator id.
type opBase struct{ id int }

func (b *opBase) opID() int   { return b.id }
func (b *opBase) setID(n int) { b.id = n }

// stepMeta links operators back to the location step they implement.
type stepMeta struct {
	ord     int    // 1-based step ordinal across the whole query
	display string // canonical step rendering, including predicates
	axis    axis.Axis
}

// sourceOp emits the initial context: the document root for absolute
// paths, the caller-provided node sequence otherwise.
type sourceOp struct {
	opBase
	docRoot bool
}

func (o *sourceOp) kids() []planNode { return nil }

// fragScan is the pushdown candidate of a join or semijoin: the
// pre-sorted node list of a name or kind test, served by the shared
// tag/kind index (IndexScan) or rebuilt by an O(n) column scan
// (ColumnScan, under Options.NoIndex). It appears in the plan tree as
// a leaf input of its join.
type fragScan struct {
	opBase
	test xpath.NodeTest
	// card is the exact fragment cardinality when the index serves the
	// plan (compile time); -1 when unknown (NoIndex compilation).
	card int64
	// spanLo/spanHi delimit the fragment's pre range (valid when
	// hasSpan).
	spanLo, spanHi int32
	hasSpan        bool
	// The fragment list is a pure function of the plan's document and
	// options (both immutable after Compile), so it is resolved at most
	// once per plan and shared read-only by every Run — repeated
	// executions of a prepared plan stop re-probing the index maps (and
	// NoIndex column rescans stop re-scanning).
	once    sync.Once
	list    []int32
	indexed bool
}

func (o *fragScan) kids() []planNode { return nil }

// nodes returns the fragment node list and whether it came from the
// shared index (a fragScan is built for pushable tests only). The
// returned slice is shared across executions: callers must not mutate
// it.
func (o *fragScan) nodes(d *doc.Document, opts *Options) (list []int32, indexed bool) {
	o.once.Do(func() {
		o.list, o.indexed, _ = pushdownList(d, o.test, opts)
	})
	return o.list, o.indexed
}

// count is the fragment's exact cardinality as the compilation counted
// it, -1 when unknown.
func (o *fragScan) count(*doc.Document, *Options) int64 { return o.card }

// pushdownList resolves the fragment node list for a pushable node
// test — the nametest(doc, n) (or kind-test) operand of the §4.4
// rewrite. ok is false for tests that cannot be pushed (*, node(), and
// named processing instructions).
func pushdownList(d *doc.Document, test xpath.NodeTest, opts *Options) (list []int32, indexed, ok bool) {
	switch test.Kind {
	case xpath.TestName:
		id, found := d.Names().Lookup(test.Name)
		if !found {
			return nil, !opts.NoIndex, true // absent tag: empty fragment
		}
		if opts.NoIndex {
			return scanTagList(d, id), false, true
		}
		return d.TagIndex().Tag(id), true, true
	case xpath.TestText:
		return kindFragment(d, doc.Text, opts)
	case xpath.TestComment:
		return kindFragment(d, doc.Comment, opts)
	case xpath.TestPI:
		if test.Name != "" {
			return nil, false, false
		}
		return kindFragment(d, doc.PI, opts)
	default:
		return nil, false, false
	}
}

// pushable reports whether pushdownList can serve the test.
func pushable(test xpath.NodeTest) bool {
	switch test.Kind {
	case xpath.TestName, xpath.TestText, xpath.TestComment:
		return true
	case xpath.TestPI:
		return test.Name == ""
	default:
		return false
	}
}

// scanTagList rebuilds a tag fragment with an O(n) column scan — the
// ColumnScan operator behind Options.NoIndex.
func scanTagList(d *doc.Document, nameID int32) []int32 {
	kind := d.KindSlice()
	name := d.NameSlice()
	var list []int32
	for v := 0; v < d.Size(); v++ {
		if kind[v] == doc.Elem && name[v] == nameID {
			list = append(list, int32(v))
		}
	}
	return list
}

// kindFragment serves a non-element kind list from the index or by
// column scan.
func kindFragment(d *doc.Document, k doc.Kind, opts *Options) (list []int32, indexed, ok bool) {
	if opts.NoIndex {
		kind := d.KindSlice()
		for v := 0; v < d.Size(); v++ {
			if kind[v] == k {
				list = append(list, int32(v))
			}
		}
		return list, false, true
	}
	return d.TagIndex().KindList(uint8(k)), true, true
}

// joinOp evaluates one partitioning-axis step (or an or-self variant)
// with the staircase join kernels.
type joinOp struct {
	opBase
	in   op
	meta *stepMeta
	// base is the partitioning axis; orSelfAxis is the original
	// or-self axis when orSelf (DescendantOrSelf/AncestorOrSelf).
	base       axis.Axis
	orSelf     bool
	orSelfAxis axis.Axis
	// docNode: first step of an absolute path with document-node
	// semantics (descendant/descendant-or-self only reach joinOp).
	docNode bool
	// lend: the docNode step's consumer only reads its input (a
	// StaircaseJoin or an AxisStep), so a pushed step returns the index
	// list's own subslice (docNodeStep). Set when the consumer compiles.
	lend bool
	test xpath.NodeTest
	frag *fragScan // pushdown candidate; nil when not pushable
	est  estimates
}

func (o *joinOp) kids() []planNode {
	if o.frag != nil {
		return []planNode{o.in, o.frag}
	}
	return []planNode{o.in}
}

// stepAxis returns the axis the operator evaluates (the or-self axis
// when merging self, the partitioning base otherwise).
func (o *joinOp) stepAxis() axis.Axis {
	if o.orSelf {
		return o.orSelfAxis
	}
	return o.base
}

// axisStepOp evaluates the non-partitioning axes: child, parent, self,
// attribute, the sibling axes and namespace. Child and attribute steps
// stream a subtree-jump sweep (childCursor); the others are blocking
// parent/size-column lookups. docNode selects the document-node
// semantics of the first step of an absolute path.
type axisStepOp struct {
	opBase
	in      op
	meta    *stepMeta
	a       axis.Axis
	test    xpath.NodeTest
	docNode bool
	est     estimates
}

func (o *axisStepOp) kids() []planNode { return []planNode{o.in} }

// streams reports whether the step runs on a childCursor; parent, self,
// the sibling axes and the document-node step sort what they collect.
func (o *axisStepOp) streams() bool {
	return !o.docNode && (o.a == axis.Child || o.a == axis.Attribute)
}

// eval evaluates the step over its whole input (blocker).
func (o *axisStepOp) eval(ec *execCtx, in []int32) ([]int32, error) {
	if err := ec.cancelled(); err != nil {
		return nil, err
	}
	st, ost := ec.step(o.meta, len(in)), &ec.ops[o.id]
	start := time.Now()
	var out []int32
	var err error
	if o.docNode {
		out, err = ec.docRootAxisTest(o.a, o.test, st, ost)
	} else {
		out, err = ec.axisTest(o.a, o.test, in, st, ost)
	}
	st.Duration += time.Since(start)
	if err != nil {
		return nil, err
	}
	st.OutputSize = len(out)
	ost.record(len(in), len(out))
	return out, nil
}

// filterBase is the header of the two commutable filters (PredFilter,
// SemiJoin), the members of a reorderable chain: the predicate, the
// input link and estimates the greedy pass rewires and re-stamps, and
// the step the filter belongs to.
type filterBase struct {
	opBase
	in   op
	meta *stepMeta
	est  estimates
	pred xpath.Predicate
	// srcOrd is the predicate's source position within its step; the
	// canonical plan string renders commutable filter chains in srcOrd
	// order so ordering decisions never change Canon.
	srcOrd int
}

func (f *filterBase) filter() *filterBase { return f }

// label renders the filter's predicate for ordering notes.
func (f *filterBase) label() string { return "[" + f.pred.String() + "]" }

// filterOp is a commutable filter. Positional filters are
// order-sensitive and never are.
type filterOp interface {
	op
	filter() *filterBase
}

// asFilter returns o's filter header, or nil when o is not a filterOp.
func asFilter(o op) *filterBase {
	if f, ok := o.(filterOp); ok {
		return f.filter()
	}
	return nil
}

// filterChain returns the maximal filter chain headed by top, top-down,
// and the operator below it.
func filterChain(top op) (members []op, base op) {
	for f := asFilter(top); f != nil; f = asFilter(top) {
		members = append(members, top)
		top = f.in
	}
	return members, top
}

// predFilterOp filters a document-ordered node set by a non-positional
// predicate, node at a time.
type predFilterOp struct {
	filterBase
	prog *predProg
}

func (o *predFilterOp) kids() []planNode { return []planNode{o.in} }

// posFilterOp evaluates a whole step with position-sensitive
// predicates, context node by context node, maintaining XPath
// proximity positions (reverse axes count backwards). It also carries
// the document-node semantics of a predicated first step of an
// absolute path.
type posFilterOp struct {
	opBase
	in      op
	meta    *stepMeta
	step    xpath.Step
	docNode bool
	progs   []*predProg
	est     estimates
}

func (o *posFilterOp) kids() []planNode { return []planNode{o.in} }

// eval evaluates the step over its whole input, context node by context
// node (blocker).
func (o *posFilterOp) eval(ec *execCtx, in []int32) ([]int32, error) {
	st, ost := ec.step(o.meta, len(in)), &ec.ops[o.id]
	start := time.Now()
	var all []int32
	// Forward-axis per-context results are strictly increasing, so the
	// concatenation only needs re-sorting when consecutive groups
	// interleave; reverse axes emit per-context results backwards and
	// always re-sort.
	sorted := !o.step.Axis.Reverse()
	for _, c := range in {
		if err := ec.cancelled(); err != nil {
			return nil, err
		}
		nodes, err := o.evalOne(ec, c, st, ost)
		if err != nil {
			return nil, err
		}
		if sorted && len(nodes) > 0 && len(all) > 0 && nodes[0] <= all[len(all)-1] {
			sorted = false
		}
		all = append(all, nodes...)
	}
	// Per-context results are sorted; when they never interleaved
	// (the common case: disjoint context subtrees) the concatenation
	// is already a document-ordered duplicate-free sequence, so the
	// defensive sortDedup decays to the monotonicity counter above.
	if !sorted {
		all = sortDedup(all)
	} else if invariantChecks {
		assertSortedDedup(all)
	}
	st.Duration += time.Since(start)
	st.OutputSize = len(all)
	ost.record(len(in), len(all))
	return all, nil
}

// evalOne evaluates the positional step for one context node: axis
// result in proximity order (reverse axes count backwards), stopping at
// the k-th candidate on a forward axis when the first predicate is a
// plain [k], then the predicates in sequence.
func (o *posFilterOp) evalOne(ec *execCtx, c int32, st *StepStats, ost *opStat) ([]int32, error) {
	var nodes []int32
	var err error
	switch k := o.firstK(); {
	case o.docNode:
		nodes, err = ec.docRootAxisTest(o.step.Axis, o.step.Test, st, ost)
	case k > 0 && !o.step.Axis.Reverse():
		nodes, err = ec.axisTestFirstK(o.step.Axis, o.step.Test, c, k, st, ost)
	default:
		nodes, err = ec.axisTest(o.step.Axis, o.step.Test, []int32{c}, st, ost)
	}
	if err != nil {
		return nil, err
	}
	if o.step.Axis.Reverse() {
		slices.Reverse(nodes)
	}
	for _, prog := range o.progs {
		nodes, err = applyPositional(ec, nodes, prog)
		if err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// firstK returns k when the operator's first predicate is a bare
// position()=k (or [k]) test — the axis result beyond the k-th
// candidate can then never influence the output — and 0 otherwise.
func (o *posFilterOp) firstK() int {
	if len(o.progs) == 0 || o.progs[0].kind != pgPosition {
		return 0
	}
	return o.progs[0].n
}

// applyPositional applies one predicate to an axis-ordered node
// sequence of a single context node, maintaining proximity positions.
func applyPositional(ec *execCtx, nodes []int32, prog *predProg) ([]int32, error) {
	var out []int32
	for i, v := range nodes {
		ok, err := prog.holdsAt(ec, v, i+1, len(nodes))
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, v)
		}
	}
	return out, nil
}

// mergeOp merges the union branches into one document-ordered,
// duplicate-free sequence ('|' semantics).
type mergeOp struct {
	opBase
	ins []op
}

func (o *mergeOp) kids() []planNode {
	kids := make([]planNode, len(o.ins))
	for i, in := range o.ins {
		kids[i] = in
	}
	return kids
}

// --- shared evaluation helpers ------------------------------------------

// step returns the StepStats slot of a step, stamping its input size
// on first touch.
func (ec *execCtx) step(meta *stepMeta, inputSize int) *StepStats {
	st := &ec.steps[meta.ord-1]
	st.InputSize = inputSize
	return st
}

// axisTest evaluates axis::nodetest for the whole context, recording
// a partitioning step's work on st and its pushdown decision on st and
// ost (either may be nil).
func (ec *execCtx) axisTest(a axis.Axis, test xpath.NodeTest, context []int32, st *StepStats, ost *opStat) ([]int32, error) {
	d := ec.env.Doc
	switch a {
	case axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding:
		return ec.partitioning(a, false, test, context, st, ost)
	case axis.DescendantOrSelf:
		return ec.partitioning(axis.Descendant, true, test, context, st, ost)
	case axis.AncestorOrSelf:
		return ec.partitioning(axis.Ancestor, true, test, context, st, ost)
	case axis.Child, axis.Attribute:
		s := childStack{d: d, attrs: a == axis.Attribute, e: emitFor(d, a, test), ctx: context}
		return s.sweep(nil, math.MaxInt, 0, true), nil
	case axis.Parent:
		var out []int32
		for _, c := range context {
			if p := d.Parent(c); p != doc.NoParent {
				out = append(out, p)
			}
		}
		out = sortDedup(out)
		return filterTest(d, a, test, out), nil
	case axis.Self:
		return filterTest(d, a, test, slices.Clone(context)), nil
	case axis.FollowingSibling:
		var out []int32
		for _, c := range context {
			for s := d.FollowingSibling(c); s != -1; s = d.FollowingSibling(s) {
				out = append(out, s)
			}
		}
		out = sortDedup(out)
		return filterTest(d, a, test, out), nil
	case axis.PrecedingSibling:
		var out []int32
		for _, c := range context {
			p := d.Parent(c)
			if p == doc.NoParent {
				continue
			}
			for _, s := range d.Children(p) {
				if s >= c {
					break
				}
				out = append(out, s)
			}
		}
		out = sortDedup(out)
		return filterTest(d, a, test, out), nil
	case axis.Namespace:
		return nil, nil
	default:
		return nil, fmt.Errorf("plan: unsupported axis %v", a)
	}
}

// docRootAxisTest evaluates a step against the implicit document node
// of an absolute path: its only child is the root element, its
// descendants are all nodes including the root element, and every
// other axis is empty from there.
func (ec *execCtx) docRootAxisTest(a axis.Axis, test xpath.NodeTest, st *StepStats, ost *opStat) ([]int32, error) {
	d := ec.env.Doc
	root := d.Root()
	switch a {
	case axis.Child:
		return filterTest(d, a, test, []int32{root}), nil
	case axis.Descendant, axis.DescendantOrSelf:
		return ec.docNodeStep(test, st, ost, false)
	case axis.Self, axis.AncestorOrSelf:
		if test.Kind == xpath.TestNode {
			return []int32{root}, nil // stand-in for the document node
		}
		return nil, nil
	default:
		// ancestor, parent, siblings, following, preceding, attribute,
		// namespace: empty from the document node.
		return nil, nil
	}
}

// docNodeStep evaluates a document-node step, /descendant::test or
// /descendant-or-self::test: the root element's descendant-or-self nodes
// that pass test. Pushed, that is the span of test's fragment over the
// root's subtree, found by two binary searches (core.SubtreeNodeList).
// With lend the step returns the index list's own subslice, for a
// consumer that only reads it; otherwise one exact-size copy.
func (ec *execCtx) docNodeStep(test xpath.NodeTest, st *StepStats, ost *opStat, lend bool) ([]int32, error) {
	d := ec.env.Doc
	co := ec.coreOptions(st)
	list, pushed := ec.pushdown(test, st, ost)
	if !pushed {
		co.Emit, co.OrSelf = emitFor(d, axis.Descendant, test), true
		return core.Join(d, axis.Descendant, []int32{d.Root()}, &co)
	}
	if len(list) == 0 {
		return nil, nil // tag/kind absent
	}
	nodes := core.SubtreeNodeList(d, list, d.Root(), &co)
	if lend {
		return nodes, nil
	}
	co.Stats.AddCopy(len(nodes))
	return slices.Clone(nodes), nil
}

// partitioning evaluates one of the four partitioning axes (with orSelf:
// the or-self variant of descendant or ancestor) with the staircase
// join, the kernel run once at an unbounded window. The full scan
// applies the node test and emits the self side inside the kernel; the
// pushdown path merges the self side after.
func (ec *execCtx) partitioning(a axis.Axis, orSelf bool, test xpath.NodeTest, context []int32, st *StepStats, ost *opStat) ([]int32, error) {
	d := ec.env.Doc
	co := ec.coreOptions(st)
	if list, pushed := ec.pushdown(test, st, ost); pushed {
		if len(list) == 0 {
			return nil, nil // tag/kind absent: empty result, self side included
		}
		nodes, err := core.JoinNodeList(d, a, list, context, &co)
		if err != nil || !orSelf {
			return nodes, err
		}
		return core.MergeOrSelf(nodes, filterTest(d, a, test, slices.Clone(context))), nil
	}
	co.Emit, co.OrSelf = emitFor(d, a, test), orSelf
	return core.Join(d, a, context, &co)
}

// pushdown makes the §4.4 decision for a partitioning step with the one
// rule a bounded window can apply: push the node test below the join
// when the shared index serves its fragment, and under PushAlways
// whenever the test has one. It records the decision on the step and
// the operator (either may be nil); list is the fragment when pushed.
func (ec *execCtx) pushdown(test xpath.NodeTest, st *StepStats, ost *opStat) (list []int32, pushed bool) {
	if !ec.pushes() {
		return nil, false
	}
	list, indexed, ok := ec.fragList(test)
	if !ok {
		return nil, false
	}
	if st != nil {
		st.Pushed, st.Indexed = true, indexed
	}
	if ost != nil {
		ost.pushed, ost.indexed, ost.fragSize = true, indexed, len(list)
	}
	if invariantChecks {
		assertFragment(ec.env.Doc, list)
	}
	return list, true
}

// pushes reports whether the options let pushdown push a node test
// that has a fragment: never under PushNever, under NoIndex only with
// PushAlways.
func (ec *execCtx) pushes() bool {
	mode := ec.opts.Pushdown
	return mode != PushNever && (!ec.opts.NoIndex || mode == PushAlways)
}

// coreOptions returns the kernel options of one step: estimation-based
// skipping (Algorithm 4), counting into the step's stats when it has
// any.
func (ec *execCtx) coreOptions(st *StepStats) core.Options {
	co := core.Options{Variant: core.SkipEstimate}
	if st != nil {
		co.Stats = &st.Core
	}
	return co
}

// filterTest filters nodes by the node test in place (the slice is
// reused) and returns the filtered prefix.
func filterTest(d *doc.Document, a axis.Axis, test xpath.NodeTest, nodes []int32) []int32 {
	e, kind, name := emitFor(d, a, test), d.KindSlice(), d.NameSlice()
	out := nodes[:0]
	for _, v := range nodes {
		if e.Pass(kind[v], name[v]) {
			out = append(out, v)
		}
	}
	return out
}

// nodePassesTest decides the node test for one node on one axis.
func nodePassesTest(d *doc.Document, a axis.Axis, test xpath.NodeTest, v int32) bool {
	return emitFor(d, a, test).Pass(d.KindOf(v), d.NameID(v))
}

// emitFor translates a node test on axis a into the one test the
// staircase kernels fuse into their scan and filterTest applies after
// every other axis: a kind mask plus, for a name, its interned id,
// resolved once. Attributes appear only on the attribute axis, and that
// axis holds nothing else (axis.In semantics — value-index fragments rely
// on this when filtered per axis), so the or-self axes drop attribute
// self nodes under the same mask their base axis scans with.
func emitFor(d *doc.Document, a axis.Axis, test xpath.NodeTest) core.Emit {
	principal, onAxis := doc.Elem, core.NonAttr
	if a == axis.Attribute {
		principal, onAxis = doc.Attr, 1<<doc.Attr
	}
	var e core.Emit
	switch test.Kind {
	case xpath.TestName, xpath.TestAny:
		e.Kinds = 1 << principal
	case xpath.TestNode:
		e.Kinds = onAxis
	case xpath.TestText:
		e.Kinds = 1 << doc.Text
	case xpath.TestComment:
		e.Kinds = 1 << doc.Comment
	case xpath.TestPI:
		e.Kinds = 1 << doc.PI
	}
	if test.Kind == xpath.TestName || test.Kind == xpath.TestPI && test.Name != "" {
		if e.Name, e.ByName = d.Names().Lookup(test.Name); !e.ByName {
			e.Kinds = 0 // no node carries the name
		}
	}
	if e.Kinds &= onAxis; e.Kinds == 0 {
		e.Kinds = core.NoKinds
	}
	return e
}

// sortDedup sorts a pre-rank slice, unless it already ascends (per-
// context results concatenate in order whenever the context nodes do
// not nest), and removes duplicates in place.
func sortDedup(nodes []int32) []int32 {
	if !slices.IsSorted(nodes) {
		slices.Sort(nodes)
	}
	return slices.Compact(nodes)
}
