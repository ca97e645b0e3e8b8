// Physical operators. A compiled plan is a tree of ops; each op pulls
// its input operator's result and transforms it. Operator kinds:
//
//	Source         initial context ([root] or the caller's nodes)
//	StaircaseJoin  one partitioning-axis step (descendant, ancestor,
//	               following, preceding, and the or-self variants)
//	               via the core staircase join kernels; carries an
//	               optional fragment scan (IndexScan/ColumnScan) as
//	               the §4.4 name/kind-test pushdown candidate
//	AxisStep       the remaining axes: positional parent/child/sibling
//	               and attribute lookups over the encoding's columns
//	SemiJoin       a rewritten existential predicate: keeps the input
//	               nodes that stand in the inverse axis relation to a
//	               fragment, set-at-a-time (no per-node evaluation)
//	PredFilter     a non-positional predicate, node at a time
//	PosFilter      a whole step with position-sensitive predicates,
//	               context node at a time with proximity positions
//	Merge          the '|' union merge (document order, dedup)
//
// The NaiveJoin and SQLJoin strategy baselines reuse the StaircaseJoin
// operator slot with a different strategy tag, mirroring the paper's
// comparison matrix.

package plan

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"staircase/internal/axis"
	"staircase/internal/baseline"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/xpath"
)

// op is one physical operator.
type op interface {
	// run pulls the input operators and evaluates this operator
	// (materializing executor).
	run(ec *execCtx) ([]int32, error)
	// open returns a streaming cursor over the operator's result
	// (cursor executor, cursor.go). The cursor owns its input cursors.
	open(ec *execCtx) (cursor, error)
	// kids returns the input operators (primary input first).
	kids() []op
	// opID is the operator's index into the plan's op table.
	opID() int
	// setID assigns the id at compile time.
	setID(int)
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

func (o *sourceOp) kids() []op { return nil }

func (o *sourceOp) run(ec *execCtx) ([]int32, error) {
	var out []int32
	if o.docRoot {
		out = []int32{ec.env.Doc.Root()}
	} else {
		out = ec.initial
	}
	ec.ops[o.id].record(len(out), len(out))
	return out, nil
}

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
	ok      bool
}

func (o *fragScan) kids() []op { return nil }

// run resolves the fragment list; used via resolve, never as a chain
// link.
func (o *fragScan) run(ec *execCtx) ([]int32, error) {
	list, _, _ := o.resolve(ec)
	// Callers own run results; the memoised fragment is shared.
	return append([]int32(nil), list...), nil
}

// resolve returns the fragment node list, whether it came from the
// shared index, and whether the test is servable at all. The returned
// slice is shared across executions: callers must not mutate it.
func (o *fragScan) resolve(ec *execCtx) (list []int32, indexed, ok bool) {
	return o.resolveWith(ec.env.Doc, ec.opts)
}

// resolveWith is resolve without an execution context (the greedy
// ordering pass runs at compile time).
func (o *fragScan) resolveWith(d *doc.Document, opts *Options) (list []int32, indexed, ok bool) {
	o.once.Do(func() {
		o.list, o.indexed, o.ok = pushdownList(d, o.test, opts)
	})
	return o.list, o.indexed, o.ok
}

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
// with the plan's strategy: the staircase join kernels, the naive
// region-query baseline, or the SQL B-tree semijoin.
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
	test    xpath.NodeTest
	variant core.Variant
	frag    *fragScan // pushdown candidate; nil when not pushable
	est     estimates
}

func (o *joinOp) kids() []op {
	if o.frag != nil {
		return []op{o.in, o.frag}
	}
	return []op{o.in}
}

func (o *joinOp) run(ec *execCtx) ([]int32, error) {
	in, err := o.in.run(ec)
	if err != nil {
		return nil, err
	}
	if err := ec.cancelled(); err != nil {
		return nil, err
	}
	st := ec.step(o.meta, len(in))
	ost := &ec.ops[o.id]
	prev, prevFrag := ec.cur, ec.curFrag
	ec.cur, ec.curFrag = ost, o.frag
	skippedBefore := st.Core.Skipped
	start := time.Now()
	var out []int32
	if o.docNode {
		out, err = ec.docRootAxisTest(o.stepAxis(), o.test, st)
	} else {
		out, err = ec.axisTest(o.stepAxis(), o.test, in, st)
	}
	st.Duration += time.Since(start)
	ec.cur, ec.curFrag = prev, prevFrag
	if err != nil {
		return nil, err
	}
	st.OutputSize = len(out)
	ost.record(len(in), len(out))
	ost.skipped += st.Core.Skipped - skippedBefore
	return out, nil
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
// attribute, the sibling axes and namespace, via positional
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

func (o *axisStepOp) kids() []op { return []op{o.in} }

func (o *axisStepOp) run(ec *execCtx) ([]int32, error) {
	in, err := o.in.run(ec)
	if err != nil {
		return nil, err
	}
	if err := ec.cancelled(); err != nil {
		return nil, err
	}
	st := ec.step(o.meta, len(in))
	start := time.Now()
	var out []int32
	if o.docNode {
		out, err = ec.docRootAxisTest(o.a, o.test, st)
	} else {
		out, err = ec.axisTest(o.a, o.test, in, st)
	}
	st.Duration += time.Since(start)
	if err != nil {
		return nil, err
	}
	st.OutputSize = len(out)
	ec.ops[o.id].record(len(in), len(out))
	return out, nil
}

// predFilterOp filters a document-ordered node set by a non-positional
// predicate, node at a time.
type predFilterOp struct {
	opBase
	in   op
	meta *stepMeta
	pred xpath.Predicate
	prog *predProg
	est  estimates
	// srcOrd is the predicate's source position within its step; the
	// canonical plan string renders commutable filter chains in srcOrd
	// order so ordering decisions never change Canon.
	srcOrd int
	// chain, on the bottom operator of a reordered filter chain, carries
	// the adaptive-execution metadata (order.go); nil otherwise.
	chain *chainMeta
}

func (o *predFilterOp) kids() []op { return []op{o.in} }

func (o *predFilterOp) run(ec *execCtx) ([]int32, error) {
	in, err := o.in.run(ec)
	if err != nil {
		return nil, err
	}
	st := &ec.steps[o.meta.ord-1]
	start := time.Now()
	out := in[:0]
	for i, v := range in {
		if i&1023 == 0 {
			if err := ec.cancelled(); err != nil {
				return nil, err
			}
		}
		ok, err := o.prog.holds(ec, v)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, v)
		}
	}
	st.Duration += time.Since(start)
	st.OutputSize = len(out)
	ec.ops[o.id].record(len(in), len(out))
	return out, nil
}

// semiJoinOp is the exists-semijoin rewrite: keep the input nodes that
// have at least one fragment node on the predicate's axis. Evaluated
// set-at-a-time as a staircase node-list join on the *inverse* axis —
// s has a fragment node among its descendants iff s is an ancestor of
// a fragment node — instead of one predicate evaluation per node.
type semiJoinOp struct {
	opBase
	in   op
	meta *stepMeta
	// pred is the original predicate rendering (for EXPLAIN).
	pred string
	// existsAxis is the predicate's axis; inv its inverse, which the
	// node-list join runs on.
	existsAxis axis.Axis
	inv        axis.Axis
	frag       *fragScan
	variant    core.Variant
	est        estimates
	// srcOrd/chain: see predFilterOp.
	srcOrd int
	chain  *chainMeta
}

func (o *semiJoinOp) kids() []op { return []op{o.in, o.frag} }

func (o *semiJoinOp) run(ec *execCtx) ([]int32, error) {
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
	skippedBefore := st.Core.Skipped
	list, indexed, _ := o.frag.resolve(ec)
	ost.indexed = indexed
	var out []int32
	if len(in) > 0 && len(list) > 0 {
		if !ec.opts.NoReorder && probeFromInput(len(in), len(list)) {
			// Input-probe direction: the input is far smaller than the
			// fragment, so per-node binary probes (O(n log f)) beat the
			// node-list join's linear sweep (O(n + f)).
			ost.probeDir = probeInputSeek
			pr := newSemiProbe(ec.env.Doc, o.existsAxis, list)
			out = in[:0]
			for _, v := range in {
				if pr.admit(v) {
					out = append(out, v)
				}
				if pr.exhaustedAfter(v) {
					break
				}
			}
		} else {
			ost.probeDir = probeFragSweep
			co := &core.Options{Variant: o.variant, Stats: &st.Core}
			out, err = core.JoinNodeList(ec.env.Doc, o.inv, in, list, co)
		}
	}
	st.Duration += time.Since(start)
	if err != nil {
		return nil, err
	}
	st.OutputSize = len(out)
	ost.record(len(in), len(out))
	ost.fragSize = len(list)
	ost.skipped += st.Core.Skipped - skippedBefore
	return out, nil
}

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

func (o *posFilterOp) kids() []op { return []op{o.in} }

func (o *posFilterOp) run(ec *execCtx) ([]int32, error) {
	in, err := o.in.run(ec)
	if err != nil {
		return nil, err
	}
	st := ec.step(o.meta, len(in))
	ost := &ec.ops[o.id]
	prev := ec.cur
	ec.cur = ost
	start := time.Now()
	out, err := o.evalContext(ec, in, st)
	st.Duration += time.Since(start)
	ec.cur = prev
	if err != nil {
		return nil, err
	}
	st.OutputSize = len(out)
	ost.record(len(in), len(out))
	return out, nil
}

// evalContext evaluates the positional step for a whole context
// sequence, context node by context node (shared by the materializing
// run and the blocking modes of the streaming cursor).
func (o *posFilterOp) evalContext(ec *execCtx, in []int32, st *StepStats) ([]int32, error) {
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
		nodes, err := o.evalOne(ec, c, st)
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
	if sorted {
		if invariantChecks {
			assertSortedDedup(all)
		}
		return all, nil
	}
	return sortDedup(all), nil
}

// evalOne evaluates the positional step for one context node: axis
// result in proximity order (reverse axes count backwards), then the
// predicates in sequence. (The streaming cursor's evalOneCapped wraps
// this with the [k] early-stop; the materializing executor keeps its
// exact per-step work counters.)
func (o *posFilterOp) evalOne(ec *execCtx, c int32, st *StepStats) ([]int32, error) {
	var nodes []int32
	var err error
	if o.docNode {
		nodes, err = ec.docRootAxisTest(o.step.Axis, o.step.Test, st)
	} else {
		nodes, err = ec.axisTest(o.step.Axis, o.step.Test, []int32{c}, st)
	}
	if err != nil {
		return nil, err
	}
	if o.step.Axis.Reverse() {
		for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
			nodes[i], nodes[j] = nodes[j], nodes[i]
		}
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

func (o *mergeOp) kids() []op { return o.ins }

func (o *mergeOp) run(ec *execCtx) ([]int32, error) {
	var acc []int32
	total := 0
	for _, in := range o.ins {
		if err := ec.cancelled(); err != nil {
			return nil, err
		}
		nodes, err := in.run(ec)
		if err != nil {
			return nil, err
		}
		total += len(nodes)
		acc = core.MergeOrSelf(acc, nodes)
	}
	ec.ops[o.id].record(total, len(acc))
	return acc, nil
}

// --- shared evaluation helpers (the step interpreter's machinery,
// --- restructured to serve the operators) --------------------------

// step returns the StepStats slot of a step, stamping its input size
// on first touch.
func (ec *execCtx) step(meta *stepMeta, inputSize int) *StepStats {
	st := &ec.steps[meta.ord-1]
	st.InputSize = inputSize
	return st
}

// axisTest evaluates axis::nodetest for the whole context.
func (ec *execCtx) axisTest(a axis.Axis, test xpath.NodeTest, context []int32, st *StepStats) ([]int32, error) {
	d := ec.env.Doc
	switch a {
	case axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding:
		return ec.partitioning(a, false, test, context, st)
	case axis.DescendantOrSelf:
		return ec.partitioning(axis.Descendant, true, test, context, st)
	case axis.AncestorOrSelf:
		return ec.partitioning(axis.Ancestor, true, test, context, st)
	case axis.Child:
		var out []int32
		for _, c := range context {
			out = append(out, d.Children(c)...)
		}
		sortNodes(out)
		return filterTest(d, a, test, out), nil
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
	case axis.Attribute:
		var out []int32
		for _, c := range context {
			out = append(out, d.Attributes(c)...)
		}
		sortNodes(out)
		return filterTest(d, a, test, out), nil
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
func (ec *execCtx) docRootAxisTest(a axis.Axis, test xpath.NodeTest, st *StepStats) ([]int32, error) {
	d := ec.env.Doc
	root := d.Root()
	switch a {
	case axis.Child:
		return filterTest(d, a, test, []int32{root}), nil
	case axis.Descendant, axis.DescendantOrSelf:
		return ec.axisTest(axis.DescendantOrSelf, test, []int32{root}, st)
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

// partitioning evaluates one of the four partitioning axes (with orSelf:
// the or-self variant of descendant or ancestor) with the configured
// strategy. The pushdown and parallel-fan-out decisions are made here,
// from the actual context, with the cost model's bounds. The staircase
// full scan applies the node test and emits the self side inside the
// kernel; the pushdown path and the baselines filter and merge after.
func (ec *execCtx) partitioning(a axis.Axis, orSelf bool, test xpath.NodeTest, context []int32, st *StepStats) ([]int32, error) {
	d := ec.env.Doc
	opts := ec.opts
	var nodes []int32
	var err error
	switch opts.Strategy {
	case Staircase, StaircaseSkip, StaircaseNoSkip:
		co := &core.Options{Variant: variantFor(opts.Strategy)}
		if st != nil {
			co.Stats = &st.Core
		}
		bound := estimateJoinTouches(d, a, context)
		workers := parallelWorkersFor(opts, bound)
		if ec.cur != nil {
			ec.cur.bound = bound
			ec.cur.workersOffered = workers
		}
		pushed := false
		if opts.Pushdown != PushNever {
			if list, indexed, ok := ec.fragList(test); ok {
				if ec.cur != nil {
					ec.cur.fragSize = len(list)
				}
				if pushed = shouldPush(int64(len(list)), bound, opts.Pushdown, workers); pushed {
					if st != nil {
						st.Pushed = true
						st.Indexed = indexed
					}
					if ec.cur != nil {
						ec.cur.pushed = true
						ec.cur.indexed = indexed
					}
					if len(list) == 0 {
						return nil, nil // tag/kind absent: empty result, self side included
					}
					// Fragment joins stay serial: the node list is binary-
					// search bounded and the cost model only chose this
					// path because it beats even the parallel full-
					// document join.
					nodes, err = core.JoinNodeList(d, a, list, context, co)
				}
			}
		}
		if !pushed {
			co.Emit, co.OrSelf = emitFor(d, a, test), orSelf
			if workers > 1 {
				return core.ParallelJoin(d, a, context, workers, co)
			}
			return core.Join(d, a, context, co)
		}
	case Naive:
		var nst *baseline.NaiveStats
		if st != nil {
			nst = &st.Naive
		}
		nodes = filterTest(d, a, test, baseline.NaiveJoin(d, a, context, nst))
	case SQL, SQLWindow:
		so := baseline.SQLOptions{UseWindow: opts.Strategy == SQLWindow}
		if test.Kind == xpath.TestName {
			// The paper's DB2 observation: the B-tree uses concatenated
			// (pre, post, tag name) keys, so the name test is early.
			so.Tag = test.Name
			if st != nil {
				st.Pushed = true
			}
			if ec.cur != nil {
				ec.cur.pushed = true
			}
		}
		if nodes, err = ec.env.SQL().Step(a, context, so); so.Tag == "" {
			nodes = filterTest(d, a, test, nodes)
		}
	default:
		return nil, fmt.Errorf("plan: unknown strategy %v", opts.Strategy)
	}
	if err != nil || !orSelf {
		return nodes, err
	}
	return core.MergeOrSelf(nodes, filterTest(d, a, test, slices.Clone(context))), nil
}

// variantFor maps strategies to staircase join variants.
func variantFor(s Strategy) core.Variant {
	switch s {
	case StaircaseNoSkip:
		return core.NoSkip
	case StaircaseSkip:
		return core.Skip
	default:
		return core.SkipEstimate
	}
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

// sortNodes sorts a pre-rank slice, unless it already ascends (per-
// context results concatenate in order whenever the context nodes do
// not nest).
func sortNodes(nodes []int32) {
	if !slices.IsSorted(nodes) {
		slices.Sort(nodes)
	}
}

// sortDedup sorts a pre-rank slice and removes duplicates in place.
func sortDedup(nodes []int32) []int32 {
	sortNodes(nodes)
	return slices.Compact(nodes)
}
