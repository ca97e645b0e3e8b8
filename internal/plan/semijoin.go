// The semijoin: one operator for every predicate a fragment serves.
//
//	Filter(S, [p])  =>  SemiJoin(S, fragment(p), relation(p))
//
// The fragment is the pre-sorted list of the nodes that can witness the
// predicate at its path's last step: the tag/kind list of the step's
// node test for an existential path (IndexScan, or ColumnScan under
// NoIndex), or the value-index view of a comparison or contains()
// (ValueScan, value.go). The relation ties a witness to the input nodes
// it certifies:
//
//   - staircase: the path is one step on a partitioning axis, and an
//     input node qualifies iff it lies on the inverse axis of a witness
//     (s has a descendant in F iff s is an ancestor of a node of F) —
//     one staircase node-list join, the §4.4 exists-semijoin;
//   - climb: the path is a self, child, attribute or descendant-or-self
//     step, the child and attribute steps possibly behind bare
//     child::name or child::* steps, and a witness certifies the node
//     its parent-column walk up the path reaches — Monet's positional
//     parent lookup (§4), one tested hop per step.
//
// A staircase always probes by input seek: it decides each input node
// by binary search over the fragment (semiProbe), pulling its input
// with seek hints derived from the fragment span. A climb sweeps
// instead when its fragment is no larger than its compile-time input
// bound: it walks its certified set — the sorted, duplicate-free nodes
// the fragment certifies, built at most once per plan — and pulls its
// input from the next certified node on.

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

// fragment is a semijoin's leaf: a fragScan or a valueScan.
type fragment interface {
	planNode
	// nodes returns the fragment node list (shared across executions:
	// callers must not mutate it) and whether an index served it.
	nodes(d *doc.Document, opts *Options) (list []int32, indexed bool)
	// count is the fragment's exact cardinality at compile time, -1 when
	// the compilation does not know it.
	count(d *doc.Document, opts *Options) int64
}

// semiJoinOp keeps the input nodes that a fragment node certifies
// through the relation.
type semiJoinOp struct {
	filterBase
	frag fragment
	// a is the axis of the predicate path's last step; a partitioning
	// axis selects the staircase relation, any other the climb. up holds
	// the tests of the child steps before it, innermost first (climb).
	a  axis.Axis
	up []core.Emit
	// path is the predicate's path, which EXPLAIN names when up is set.
	path xpath.Path
	// A climb's certified set is a pure function of the plan's document
	// and fragment, so it is built at most once per plan, by the first
	// sweep, and shared read-only by every execution.
	certOnce sync.Once
	cert     []int32
}

func (o *semiJoinOp) kids() []planNode { return []planNode{o.in, o.frag} }

// relation names the semijoin's relation for EXPLAIN.
func (o *semiJoinOp) relation() string {
	switch {
	case o.a.Partitioning():
		return fmt.Sprintf("staircase join over the %s axis", inverseAxis(o.a))
	case len(o.up) == 0:
		return fmt.Sprintf("parent-column climb on the %s axis", o.a)
	default:
		return fmt.Sprintf("parent-column climb up the path %s", o.path)
	}
}

// inverseAxis maps each partitioning axis to its inverse.
func inverseAxis(a axis.Axis) axis.Axis {
	switch a {
	case axis.Descendant:
		return axis.Ancestor
	case axis.Ancestor:
		return axis.Descendant
	case axis.Following:
		return axis.Preceding
	default:
		return axis.Following
	}
}

// sweeps decides the probe direction: a climb sweeps its certified set
// when its fragment is no larger than its compile-time input bound; a
// staircase always seeks.
func (o *semiJoinOp) sweeps(frag int) bool {
	return !o.a.Partitioning() && frag > 0 && int64(frag) <= o.est.In
}

// certifiesOne reports a climb whose fragment nodes certify at most one
// node each: a self, child or attribute step (descendant-or-self
// certifies a whole ancestor chain).
func (o *semiJoinOp) certifiesOne() bool {
	return o.a == axis.Self || o.a == axis.Child || o.a == axis.Attribute
}

// certified returns the climb's certified set: the sorted,
// duplicate-free nodes fragment list certifies — each fragment node's
// climb, or under descendant-or-self its whole ancestor chain. It is
// built on first use and shared read-only: callers must not mutate it.
func (o *semiJoinOp) certified(d *doc.Document, list []int32) []int32 {
	o.certOnce.Do(func() {
		switch o.a {
		case axis.Self:
			o.cert = list // certifies itself
		case axis.DescendantOrSelf:
			var cands []int32
			for _, f := range list {
				for p := f; p != doc.NoParent; p = d.Parent(p) {
					cands = append(cands, p)
				}
			}
			o.cert = sortDedup(cands)
		default: // axis.Child, axis.Attribute: at most one node per fragment node
			cert, sorted := make([]int32, 0, len(list)), true
			for _, f := range list {
				if p := climb(d, o.up, f); p != doc.NoParent {
					if n := len(cert); n > 0 && p < cert[n-1] {
						sorted = false
					}
					cert = append(cert, p)
				}
			}
			if !sorted {
				slices.Sort(cert)
			}
			o.cert = slices.Compact(cert)
		}
	})
	return o.cert
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

// semiProbe is the input-seek form of the semijoin: it decides per
// input node whether a fragment node certifies it — by binary search
// and Equation (1) subtree windows, against the fragment's reduction
// node (following/preceding), or by climbing from the fragment nodes
// inside the node's subtree (child/attribute) — plus seek hints derived
// from the fragment span. Not safe for concurrent use (minSeek advances
// while probing): each execution's cursor holds its own.
type semiProbe struct {
	a    axis.Axis
	up   []core.Emit
	d    *doc.Document
	post []int32
	kind []doc.Kind
	list []int32

	prefixMax []int32 // a == Ancestor
	minSeek   int32   // first input pre that can possibly qualify
	spanHi    int32
}

// init sets up the probe state for one execution over a resolved
// (shared, read-only) fragment list.
func (p *semiProbe) init(d *doc.Document, a axis.Axis, up []core.Emit, list []int32) {
	*p = semiProbe{a: a, up: up, d: d, post: d.PostSlice(), kind: d.KindSlice(), list: list}
	if len(list) == 0 {
		return
	}
	p.spanHi = list[len(list)-1]
	switch a {
	case axis.Self:
		// Only fragment members themselves qualify.
		p.minSeek = list[0]
	case axis.Ancestor:
		// prefixMax[i] = max subtree end over list[:i+1]: an input node b
		// has a fragment ancestor iff some fragment node before it reaches
		// at least b.
		p.prefixMax = make([]int32, len(list))
		m := int32(-1)
		for i, f := range list {
			if end := f + d.SubtreeSize(f); end > m {
				m = end
			}
			p.prefixMax[i] = m
		}
		p.minSeek = list[0] + 1
	case axis.Preceding:
		// Following-join reduction: only the minimum-post fragment node
		// matters; everything after its subtree qualifies.
		best := list[0]
		for _, f := range list[1:] {
			if p.post[f] < p.post[best] {
				best = f
			}
		}
		p.minSeek = best + 1 + d.SubtreeSize(best)
	}
}

// qualifies decides the predicate for one input node and may raise
// p.minSeek (the next input pre that could qualify).
func (p *semiProbe) qualifies(v int32) bool {
	switch p.a {
	case axis.Self:
		i := searchNodes(p.list, v)
		return i < len(p.list) && p.list[i] == v
	case axis.Descendant, axis.DescendantOrSelf:
		// A fragment node inside v's subtree window (v itself excluded on
		// the descendant axis).
		from := v
		if p.a == axis.Descendant {
			from++
		}
		i := searchNodes(p.list, from)
		return i < len(p.list) && p.list[i] <= v+p.d.SubtreeSize(v)
	case axis.Ancestor:
		i := searchNodes(p.list, v)
		if i > 0 && p.prefixMax[i-1] >= v {
			return true
		}
		// No fragment subtree reaches v; the next possible hit starts
		// after the next fragment node.
		if i < len(p.list) {
			if s := p.list[i] + 1; s > p.minSeek {
				p.minSeek = s
			}
		} else {
			p.minSeek = math.MaxInt32
		}
		return false
	case axis.Following:
		// Preceding-join reduction: compare against the maximum-pre
		// fragment node.
		f := p.spanHi
		return v < f && p.post[v] < p.post[f]
	case axis.Preceding:
		return v >= p.minSeek
	default: // axis.Child, axis.Attribute: attributes sit inside their element's window
		end := v + p.d.SubtreeSize(v)
		for i := searchNodes(p.list, v+1); i < len(p.list) && p.list[i] <= end; i++ {
			if climb(p.d, p.up, p.list[i]) == v {
				return true
			}
		}
		return false
	}
}

// admit is the full per-node test: attribute nodes never qualify (the
// node-list join's output filter; no climb reaches one either),
// below-minSeek nodes cannot stand in the relation, and the rest go
// through qualifies.
func (p *semiProbe) admit(v int32) bool {
	if v < p.minSeek || p.kind[v] == doc.Attr {
		return false
	}
	return p.qualifies(v)
}

// exhaustedAfter reports that no input node after v can qualify, so the
// consumer may stop probing input entirely.
func (p *semiProbe) exhaustedAfter(v int32) bool {
	switch p.a {
	case axis.Ancestor:
		return p.minSeek == math.MaxInt32
	case axis.Preceding:
		return false
	default:
		// Every other relation looks at pre ranks at or after the input
		// node: past the fragment's last node nothing further qualifies.
		return v >= p.spanHi
	}
}

func (o *semiJoinOp) open(ec *execCtx, whole bool) (cursor, error) {
	in, err := o.in.open(ec, whole)
	if err != nil {
		return nil, err
	}
	d := ec.env.Doc
	st, ost := &ec.steps[o.meta.ord-1], &ec.ops[o.id]
	ost.ran = true
	list, indexed := o.frag.nodes(d, ec.opts)
	ost.indexed, ost.fragSize = indexed, len(list)
	if o.sweeps(len(list)) {
		ost.probeDir = probeFragSweep
		c := reuse[climbSweepCursor](ec, o.id)
		*c = climbSweepCursor{ec: ec, st: st, ost: ost, in: in, cert: o.certified(d, list)}
		return c, nil
	}
	ost.probeDir = probeInputSeek
	c := reuse[semiJoinCursor](ec, o.id)
	*c = semiJoinCursor{ec: ec, st: st, ost: ost, in: in}
	c.pr.init(d, o.a, o.up, list)
	return c, nil
}

// semiJoinCursor streams the semijoin in the input-seek direction:
// input batches filter in place through the point probe, pulled with
// its seek hints. Once the input passes the last node that could
// qualify, the cursor stops pulling, and the staircase kernels upstream
// never scan the rest of the document.
type semiJoinCursor struct {
	ec   *execCtx
	st   *StepStats
	ost  *opStat
	in   cursor
	pr   semiProbe
	done bool
}

func (c *semiJoinCursor) next(seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	if len(c.pr.list) == 0 {
		c.done = true
		return nil, nil
	}
	if err := c.ec.cancelled(); err != nil {
		return nil, err
	}
	start := time.Now()
	out, err := c.probe(seek)
	c.st.Duration += time.Since(start)
	return out, err
}

// probe pulls input batches until one holds an admitted node.
func (c *semiJoinCursor) probe(seek int32) ([]int32, error) {
	for {
		s := seek
		if c.pr.minSeek > s {
			s = c.pr.minSeek
		}
		b, err := c.in.next(s)
		if err != nil {
			return nil, err
		}
		if b == nil {
			c.done = true
			return nil, nil
		}
		// Filter in place: b is the consumer's (whole) or released to it
		// until the next pull (streaming).
		out := b[:0]
		for _, v := range b {
			if c.pr.admit(v) {
				out = append(out, v)
			}
		}
		c.ost.in += len(b)
		c.st.InputSize = c.ost.in
		if c.pr.exhaustedAfter(b[len(b)-1]) {
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

func (c *semiJoinCursor) close() { c.in.close() }

// climbSweepCursor streams a climb in the fragment-sweep direction: it
// pulls its input from the next certified node on, keeps the batch
// nodes that merge with the certified set, and is exhausted after the
// last certified node. The join cursors below turn each seek into a list
// gallop: they scan one window from each certified node they are sent
// to, not the input between.
type climbSweepCursor struct {
	ec   *execCtx
	st   *StepStats
	ost  *opStat
	in   cursor
	cert []int32 // shared, read-only
	pos  int     // the first certified node not yet passed
	done bool
}

func (c *climbSweepCursor) next(seek int32) ([]int32, error) {
	for !c.done {
		if err := c.ec.cancelled(); err != nil {
			return nil, err
		}
		start := time.Now()
		out, err := c.merge(seek)
		c.st.Duration += time.Since(start)
		if err != nil || len(out) > 0 {
			return out, err
		}
	}
	return nil, nil
}

// merge pulls one input batch from max(seek, next certified node) and
// filters it in place to the certified nodes it holds.
func (c *climbSweepCursor) merge(seek int32) ([]int32, error) {
	if c.pos < len(c.cert) && c.cert[c.pos] < seek {
		c.pos += searchNodes(c.cert[c.pos:], seek)
	}
	if c.pos == len(c.cert) {
		c.done = true
		return nil, nil
	}
	b, err := c.in.next(c.cert[c.pos])
	if err != nil || b == nil {
		c.done = true
		return nil, err
	}
	out := b[:0]
	for _, v := range b {
		for c.pos < len(c.cert) && c.cert[c.pos] < v {
			c.pos++
		}
		if c.pos == len(c.cert) {
			break
		}
		if c.cert[c.pos] == v {
			out = append(out, v)
			c.pos++
		}
	}
	c.done = c.pos == len(c.cert)
	c.ost.in += len(b)
	c.st.InputSize = c.ost.in
	c.ost.out += len(out)
	c.st.OutputSize = c.ost.out
	return out, nil
}

func (c *climbSweepCursor) close() { c.in.close() }
