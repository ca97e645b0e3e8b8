// The cursor executor: the one face of the physical operators.
//
// Every executable operator implements open(ec, whole) (cursor, error);
// a cursor yields the operator's result as a sequence of strictly
// increasing preorder batches, pulled on demand. Plan.Run drains the
// root cursor; Plan.RunLimit and Plan.Cursor pull only what they need,
// and the suspended staircase kernels (core.JoinCursor) never scan the
// document regions nobody asked for.
//
// A cursor opens in one of two modes, chosen by its consumer:
//
//   - Streaming: batches of at most execBatchSize nodes, valid until the
//     following next call. A join hands its kernel the batch buffer and
//     takes back what one window of that many positions yielded, node
//     test applied inside the scan; its context reaches the kernel as
//     the input cursor's batches.
//   - Whole: the first batch is the operator's entire result and the
//     next one is nil. A whole join drains its context and runs its
//     kernel once at an unbounded window into a scratch Equation (1)
//     sizes, and takes an exact copy of the result (core.Join,
//     core.JoinNodeList). A consumer that needs its whole input — a
//     whole join or child step, a parent, self or sibling AxisStep, a
//     blocking PosFilter, a whole Merge — opens that input whole. A
//     streaming child or attribute step sweeps its input's batches
//     (childStack), and a following join opens its input streaming even
//     when whole: it reads its context only as far as the first context
//     node's subtree reaches and leaves the operators below it suspended
//     there. The exception is an input that lends a span (a pushed
//     document-node step): that span costs two binary searches, so it
//     opens whole.
//
// Ownership: a whole batch is the consumer's, to filter in place or to
// return as Result.Nodes, with one exception — a pushed document-node
// step lends its consumer the index list's own span when that consumer
// only reads it (a StaircaseJoin or an AxisStep; joinOp.lend). A
// streaming batch is released to the consumer until its next pull; a
// filter may filter it in place.
//
// next additionally accepts a seekPre hint — the consumer's promise to
// ignore result nodes with pre < seekPre — which operators translate
// into scan-position jumps and node-list gallops inside the core
// kernels (SemiJoin turns fragment spans into such hints; the public
// Plan cursor exposes it as Seek).

package plan

import (
	"context"
	"math"
	"time"

	"staircase/internal/axis"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/fault"
	"staircase/internal/xpath"
)

// execBatchSize is the cursor batch capacity: small enough to keep
// first-result latency and per-operator memory bounded, large enough
// to amortise per-batch dispatch over the column scans.
const execBatchSize = 256

// execBatchMin is the first batch's capacity, and with it the first
// window a staircase kernel scans; batches grow geometrically toward
// execBatchSize so a LIMIT 1 consumer pays for a 16-node
// buffer and a 16-position scan, not the full batch.
const execBatchMin = 16

// growBuf hands out a reusable batch buffer that starts at
// execBatchMin and grows geometrically toward execBatchSize on each
// take: early-terminating consumers only pay for the batches they
// actually pull.
type growBuf struct{ buf []int32 }

func (g *growBuf) take() []int32 {
	switch {
	case g.buf == nil:
		g.buf = make([]int32, 0, execBatchMin)
	case cap(g.buf) < execBatchSize:
		g.buf = make([]int32, 0, cap(g.buf)*4)
	}
	return g.buf[:0]
}

// cursor is the face of one physical operator. next returns the next
// batch (strictly increasing pre ranks, each batch continuing past the
// previous one) or nil when exhausted. seekPre is the consumer's
// promise to ignore nodes below it (0 disables). close releases the
// cursor chain; it is idempotent.
type cursor interface {
	next(seekPre int32) ([]int32, error)
	close()
}

// reuse returns the cursor a reused execution kept for operator id, or
// a new one; the caller overwrites it whole.
func reuse[T any, PT interface {
	*T
	cursor
}](ec *execCtx, id int) PT {
	if ec.curs == nil {
		return PT(new(T))
	}
	if c, ok := ec.curs[id].(PT); ok {
		return c
	}
	c := PT(new(T))
	ec.curs[id] = c
	return c
}

// drain reads a cursor opened whole to its end: one batch, the
// consumer's own unless lent.
func drain(c cursor) ([]int32, error) {
	var all []int32
	for {
		b, err := c.next(0)
		if err != nil || b == nil {
			return all, err
		}
		if all == nil {
			all = b
		} else {
			all = append(all, b...)
		}
	}
}

// invariantChecks enables internal executor assertions (the
// equivalence suite turns it on; production code leaves it off).
var invariantChecks bool

// EnableInvariantChecks toggles internal executor assertions, such as
// the PosFilter sorted-concatenation invariant. Test-only.
func EnableInvariantChecks(on bool) { invariantChecks = on }

// assertFragment panics when a list about to be joined as a node list
// holds an attribute: the node-list kernels apply no node test, so every
// list they join must already be its test's fragment.
func assertFragment(d *doc.Document, list []int32) {
	kind := d.KindSlice()
	for _, v := range list {
		if kind[v] == doc.Attr {
			panic("plan: node-list join over a list holding an attribute")
		}
	}
}

// assertSortedDedup panics unless nodes is strictly increasing — the
// invariant the PosFilter sort decay relies on.
func assertSortedDedup(nodes []int32) {
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			panic("plan: PosFilter sort decay invariant violated: concatenation not strictly increasing")
		}
	}
}

// --- generic cursors -------------------------------------------------------

// sliceCursor batches out a materialised node sequence — the rest of it
// at once when whole — honouring seek by binary search.
type sliceCursor struct {
	nodes []int32
	pos   int
	whole bool
}

func (c *sliceCursor) next(seek int32) ([]int32, error) {
	if seek > 0 && c.pos < len(c.nodes) && c.nodes[c.pos] < seek {
		c.pos += searchNodes(c.nodes[c.pos:], seek)
	}
	if c.pos >= len(c.nodes) {
		return nil, nil
	}
	end := len(c.nodes)
	if !c.whole {
		end = min(end, c.pos+execBatchSize)
	}
	b := c.nodes[c.pos:end]
	c.pos = end
	return b, nil
}

func (c *sliceCursor) close() {}

// emptyCursor is exhausted from the start.
type emptyCursor struct{}

func (emptyCursor) next(int32) ([]int32, error) { return nil, nil }
func (emptyCursor) close()                      {}

// searchNodes returns the smallest index i with nodes[i] >= pre.
func searchNodes(nodes []int32, pre int32) int {
	lo, hi := 0, len(nodes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nodes[mid] < pre {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// blocker is an operator that evaluates its whole input at once: a
// parent, self, sibling or document-node AxisStep, or a PosFilter on a
// reverse axis, from the document node or drained whole.
type blocker interface {
	eval(ec *execCtx, in []int32) ([]int32, error)
}

// blockingCursor materializes its result on first use (a pipeline
// breaker) and then batches it out like a sliceCursor. in is the input,
// opened whole.
type blockingCursor struct {
	sliceCursor
	ec     *execCtx
	o      blocker
	in     cursor
	filled bool
}

func newBlockingCursor(ec *execCtx, id int, o blocker, in cursor, whole bool) *blockingCursor {
	c := reuse[blockingCursor](ec, id)
	*c = blockingCursor{sliceCursor: sliceCursor{whole: whole}, ec: ec, o: o, in: in}
	return c
}

func (c *blockingCursor) next(seek int32) ([]int32, error) {
	if !c.filled {
		c.filled = true
		ctx, err := drain(c.in)
		if err != nil {
			return nil, err
		}
		if c.nodes, err = c.o.eval(c.ec, ctx); err != nil {
			return nil, err
		}
	}
	return c.sliceCursor.next(seek)
}

func (c *blockingCursor) close() { c.in.close() }

// --- Source ----------------------------------------------------------------

// sourceCursor hands out the initial context, or the document root. Its
// consumers only read it: the caller's initial slice is never written.
type sourceCursor struct {
	sliceCursor
	ost  *opStat
	root [1]int32
}

func (o *sourceOp) open(ec *execCtx, whole bool) (cursor, error) {
	c := reuse[sourceCursor](ec, o.id)
	*c = sourceCursor{sliceCursor: sliceCursor{nodes: ec.initial, whole: whole}, ost: &ec.ops[o.id]}
	if o.docRoot {
		c.root[0] = ec.env.Doc.Root()
		c.nodes = c.root[:]
	}
	c.ost.ran = true
	return c, nil
}

func (c *sourceCursor) next(seek int32) ([]int32, error) {
	b, _ := c.sliceCursor.next(seek)
	c.ost.in += len(b)
	c.ost.out += len(b)
	return b, nil
}

// --- StaircaseJoin ---------------------------------------------------------

func (o *joinOp) open(ec *execCtx, whole bool) (cursor, error) {
	in, err := o.in.open(ec, whole && (o.base != axis.Following || lendsSpan(ec, o.in)))
	if err != nil {
		return nil, err
	}
	c := reuse[joinCursor](ec, o.id)
	*c = joinCursor{ec: ec, o: o, st: &ec.steps[o.meta.ord-1], ost: &ec.ops[o.id], in: in, whole: whole}
	c.ost.ran = true
	if whole {
		return c, nil
	}
	d := ec.env.Doc
	co := ec.coreOptions(c.st)
	var frag []int32
	pushed := false
	if o.frag != nil {
		frag, pushed = ec.pushdown(o.test, c.st, c.ost)
	}
	if o.orSelf || !pushed {
		emit := emitFor(d, o.base, o.test)
		if o.orSelf {
			// (Under docNode the implicit document node's descendant set
			// includes the root element itself: the same self side.)
			c.selfOn, c.self = true, emit
		}
		if !pushed {
			co.Emit = emit // a fragment already is the test
		}
	}
	if pushed {
		c.kernel, err = core.NewJoinNodeListCursor(d, o.base, frag, c.pullContext, &co)
	} else {
		c.kernel, err = core.NewJoinCursor(d, o.base, c.pullContext, &co)
	}
	if err != nil {
		in.close()
		return nil, err
	}
	return c, nil
}

// lendsSpan reports whether in is a pushed document-node step that
// lends its consumer the index list's span: opened whole, that span
// costs two binary searches, less than a kernel cursor streaming the
// prefix a following or child step reads.
func lendsSpan(ec *execCtx, in op) bool {
	j, ok := in.(*joinOp)
	return ok && j.docNode && j.lend && j.frag != nil && ec.pushes()
}

// joinCursor runs one staircase join step. Whole, it computes the step
// in one kernel call on the first next. Streaming, it feeds its kernel
// the input's batches and, on an or-self axis, tees every context node
// that passes the self test into a pending queue merged back into the
// kernel's output (the streaming form of core.MergeOrSelf over the
// context).
type joinCursor struct {
	ec    *execCtx
	o     *joinOp
	st    *StepStats
	ost   *opStat
	in    cursor
	whole bool

	kernel core.JoinCursor
	buf    growBuf
	inDone bool
	pulled int
	selfOn bool
	self   core.Emit
	pend   []int32

	kernelDone bool
	done       bool
}

func (c *joinCursor) next(seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	if err := c.ec.cancelled(); err != nil {
		return nil, err
	}
	start := time.Now()
	var out []int32
	var err error
	if c.whole {
		c.done = true
		out, err = c.all()
	} else {
		out, err = c.pull(seek)
	}
	c.st.Duration += time.Since(start)
	if len(out) == 0 {
		return nil, err
	}
	return out, err
}

// all computes the whole step: the context drained (up to the first
// context node's subtree end, on the following axis) and the kernel run
// once at an unbounded window, or a pushed document-node step's span.
func (c *joinCursor) all() ([]int32, error) {
	o := c.o
	var ctx, out []int32
	var err error
	if o.base == axis.Following {
		ctx, err = followingPrefix(c.ec.env.Doc, c.in)
	} else {
		ctx, err = drain(c.in)
	}
	if err != nil {
		return nil, err
	}
	if o.docNode {
		out, err = c.ec.docNodeStep(o.test, c.st, c.ost, o.lend)
	} else {
		out, err = c.ec.partitioning(o.base, o.orSelf, o.test, ctx, c.st, c.ost)
	}
	if err != nil {
		return nil, err
	}
	c.st.InputSize, c.st.OutputSize = len(ctx), len(out)
	c.ost.record(len(ctx), len(out))
	c.ost.skipped = c.st.Core.Skipped
	return out, nil
}

// followingPrefix reads a following step's context up to the first node
// beyond the first node's subtree, the prefix that holds its
// minimum-post node (core.ReduceFollowing), and leaves the rest unread.
func followingPrefix(d *doc.Document, in cursor) ([]int32, error) {
	var ctx []int32
	hi := int32(-1)
	for {
		b, err := in.next(0)
		if err != nil || b == nil {
			return ctx, err
		}
		if hi < 0 {
			hi = b[0] + d.SubtreeSize(b[0])
		}
		if i := searchNodes(b, hi); i < len(b) {
			if ctx == nil {
				return b[:i+1], nil // read before the input's next pull
			}
			return append(ctx, b[:i+1]...), nil
		}
		ctx = append(ctx, b...)
	}
}

// pullContext is the streaming kernel's core.NodeSource: the input's
// batches as they are, with the or-self self side teed off.
func (c *joinCursor) pullContext() ([]int32, error) {
	if c.inDone {
		return nil, nil
	}
	b, err := c.in.next(0)
	if err != nil || b == nil {
		c.inDone = true
		return nil, err
	}
	c.pulled += len(b)
	if c.selfOn {
		d := c.ec.env.Doc
		kind, name := d.KindSlice(), d.NameSlice()
		for _, v := range b {
			if c.self.Pass(kind[v], name[v]) {
				c.pend = append(c.pend, v)
			}
		}
	}
	return b, nil
}

// takePend pops the pending self nodes <= hi, dropping those below the
// seek hint.
func (c *joinCursor) takePend(hi, seek int32) []int32 {
	i := 0
	for i < len(c.pend) && c.pend[i] <= hi {
		i++
	}
	out := c.pend[:i]
	c.pend = c.pend[i:]
	j := 0
	for j < len(out) && out[j] < seek {
		j++
	}
	return out[j:]
}

// pull asks the kernel for windows until one yields nodes (the kernel's
// own output is the step's result: the emit test runs inside its scan)
// or the join is exhausted.
func (c *joinCursor) pull(seek int32) ([]int32, error) {
	for {
		if err := c.ec.cancelled(); err != nil {
			return nil, err
		}
		var out []int32
		if !c.kernelDone {
			b, err := c.kernel.Next(c.buf.take(), seek)
			if err != nil {
				return nil, err
			}
			out, c.kernelDone = b, b == nil
		}
		if c.selfOn {
			if c.kernelDone {
				// Kernels drain their context before finishing, except
				// over an empty fragment: finish the drain so the self
				// queue is complete, then flush it.
				for {
					if b, err := c.pullContext(); err != nil {
						return nil, err
					} else if b == nil {
						break
					}
				}
				out = core.MergeOrSelf(out, c.takePend(math.MaxInt32, seek))
			} else if len(out) > 0 {
				// Self nodes up to the batch ceiling can no longer be
				// interleaved by future kernel output (which is strictly
				// increasing past it).
				out = core.MergeOrSelf(out, c.takePend(out[len(out)-1], seek))
			}
		}
		if c.kernelDone && (!c.selfOn || len(c.pend) == 0) {
			c.done = true
		}
		c.ost.in = c.pulled
		c.st.InputSize = c.pulled
		c.ost.skipped = c.st.Core.Skipped
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

func (c *joinCursor) close() { c.in.close() }

// --- AxisStep --------------------------------------------------------------

func (o *axisStepOp) open(ec *execCtx, whole bool) (cursor, error) {
	streams := o.streams()
	in, err := o.in.open(ec, whole || !streams || lendsSpan(ec, o.in))
	if err != nil {
		return nil, err
	}
	if !streams {
		return newBlockingCursor(ec, o.id, o, in, whole), nil
	}
	c := reuse[childCursor](ec, o.id)
	*c = childCursor{
		childStack: childStack{d: ec.env.Doc, attrs: o.a == axis.Attribute, e: emitFor(ec.env.Doc, o.a, o.test), stack: c.stack[:0]},
		ec:         ec, st: &ec.steps[o.meta.ord-1], ost: &ec.ops[o.id], in: in, whole: whole,
	}
	return c, nil
}

// childStack sweeps child::test, or attribute::test, over a
// document-ordered context (Stack-Tree-Desc, Al-Khalifa et al., ICDE
// 2002). Each context node whose subtree is not empty becomes the top
// frame {next child, subtree end} that jumps from child to child over
// their subtrees (post + level + 1); the attribute axis stops at the end
// of the run of attribute leaves that opens the subtree. A context node
// below the top's next child lies inside an earlier child's subtree: the
// top is suspended under it. Otherwise the top emits, so the output is
// in document order with no sort.
type childStack struct {
	d     *doc.Document
	attrs bool
	e     core.Emit
	top   childFrame   // next == 0: no frame
	stack []childFrame // the suspended parents
	ctx   []int32      // the context batch being read
	pos   int
	read  int // context nodes read
}

type childFrame struct{ next, end int32 }

// pop resumes the parent the top was suspended over, if any.
func (s *childStack) pop() {
	s.top = childFrame{}
	if n := len(s.stack); n > 0 {
		s.top, s.stack = s.stack[n-1], s.stack[:n-1]
	}
}

// sweep appends the step's next nodes at or past seek to out until out
// holds limit nodes, or until it needs the context node after ctx —
// unless final, when ctx is the last of the context.
func (s *childStack) sweep(out []int32, limit int, seek int32, final bool) []int32 {
	post, level, kind, name := s.d.PostSlice(), s.d.LevelSlice(), s.d.KindSlice(), s.d.NameSlice()
	for s.top.next > 0 && s.top.end < seek {
		s.pop()
	}
	for len(out) < limit {
		if s.pos < len(s.ctx) {
			if c := s.ctx[s.pos]; s.top.next == 0 || c < s.top.next {
				s.pos, s.read = s.pos+1, s.read+1
				if end := post[c] + level[c]; end > c && end >= seek {
					if s.top.next > 0 {
						s.stack = append(s.stack, s.top)
					}
					s.top = childFrame{c + 1, end}
				}
				continue
			}
		} else if !final || s.top.next == 0 {
			return out
		}
		v := s.top.next
		if v > s.top.end || s.attrs && kind[v] != doc.Attr {
			s.pop()
			continue
		}
		s.top.next = post[v] + level[v] + 1
		if v >= seek && s.e.Pass(kind[v], name[v]) {
			out = append(out, v)
		}
	}
	return out
}

// childCursor runs a child or attribute step over its input's batches.
// Streaming, it hands back a batch when its growBuf window is full or
// the context ends; whole, it sweeps the whole context at an unbounded
// window into the consumer's slice.
type childCursor struct {
	childStack
	ec     *execCtx
	st     *StepStats
	ost    *opStat
	in     cursor
	buf    growBuf
	whole  bool
	inDone bool
}

func (c *childCursor) next(seek int32) ([]int32, error) {
	if c.inDone && c.top.next == 0 {
		return nil, nil
	}
	if err := c.ec.cancelled(); err != nil {
		return nil, err
	}
	start := time.Now()
	var out []int32
	limit := math.MaxInt
	if !c.whole {
		out = c.buf.take()
		limit = cap(out)
	}
	var err error
	for {
		out = c.sweep(out, limit, seek, c.inDone)
		if len(out) == limit || c.inDone {
			break
		}
		var b []int32
		if b, err = c.in.next(0); err != nil {
			break
		}
		c.ctx, c.pos, c.inDone = b, 0, b == nil
	}
	c.st.Duration += time.Since(start)
	c.ost.ran = true
	c.ost.in, c.st.InputSize = c.read, c.read
	if len(out) == 0 {
		return nil, err
	}
	c.ost.out += len(out)
	c.st.OutputSize = c.ost.out
	return out, err
}

func (c *childCursor) close() { c.in.close() }

// --- PredFilter ------------------------------------------------------------

func (o *predFilterOp) open(ec *execCtx, whole bool) (cursor, error) {
	in, err := o.in.open(ec, whole)
	if err != nil {
		return nil, err
	}
	c := reuse[predFilterCursor](ec, o.id)
	*c = predFilterCursor{ec: ec, o: o, in: in, st: &ec.steps[o.meta.ord-1], ost: &ec.ops[o.id]}
	c.ost.ran = true
	return c, nil
}

type predFilterCursor struct {
	ec   *execCtx
	o    *predFilterOp
	in   cursor
	st   *StepStats
	ost  *opStat
	done bool
}

func (c *predFilterCursor) next(seek int32) ([]int32, error) {
	for !c.done {
		if err := c.ec.cancelled(); err != nil {
			return nil, err
		}
		b, err := c.in.next(seek)
		if err != nil {
			return nil, err
		}
		if b == nil {
			c.done = true
			break
		}
		start := time.Now()
		// Filter in place: b is the consumer's (whole) or released to it
		// until the next pull (streaming).
		out := b[:0]
		for i, v := range b {
			if i&1023 == 1023 {
				if err := c.ec.cancelled(); err != nil {
					return nil, err
				}
			}
			ok, err := c.o.prog.holds(c.ec, v)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, v)
			}
		}
		c.st.Duration += time.Since(start)
		c.ost.in += len(b)
		c.ost.out += len(out)
		c.st.OutputSize = c.ost.out
		if len(out) > 0 {
			return out, nil
		}
	}
	return nil, nil
}

func (c *predFilterCursor) close() { c.in.close() }

// --- PosFilter -------------------------------------------------------------

func (o *posFilterOp) open(ec *execCtx, whole bool) (cursor, error) {
	// Reverse axes number proximity positions backwards and emit
	// per-context results in reverse document order: inherently
	// blocking. The document-node case is a single evaluation.
	blocks := whole || o.docNode || o.step.Axis.Reverse()
	in, err := o.in.open(ec, blocks)
	if err != nil {
		return nil, err
	}
	if blocks {
		return newBlockingCursor(ec, o.id, o, in, whole), nil
	}
	c := reuse[posFilterCursor](ec, o.id)
	*c = posFilterCursor{ec: ec, o: o, in: in, st: &ec.steps[o.meta.ord-1], ost: &ec.ops[o.id]}
	return c, nil
}

// posFilterCursor streams a forward-axis positional step: context
// nodes are pulled one at a time, each evaluated with proximity
// positions (stopping at the k-th axis candidate when the leading
// predicate is a plain [k]); results are released as soon as the next
// context node's pre rank proves no future result can precede them.
type posFilterCursor struct {
	ec  *execCtx
	o   *posFilterOp
	in  cursor
	st  *StepStats
	ost *opStat

	inBuf   []int32
	inPos   int
	inDone  bool
	pending []int32 // merged results awaiting release
	ready   []int32 // released, in emission
	rpos    int
	flushed bool
	done    bool
}

// peekCtx returns the next context node without consuming it.
func (c *posFilterCursor) peekCtx() (int32, bool, error) {
	for c.inPos >= len(c.inBuf) && !c.inDone {
		b, err := c.in.next(0)
		if err != nil {
			return 0, false, err
		}
		if b == nil {
			c.inDone = true
			break
		}
		c.inBuf, c.inPos = b, 0
	}
	if c.inPos < len(c.inBuf) {
		return c.inBuf[c.inPos], true, nil
	}
	return 0, false, nil
}

func (c *posFilterCursor) next(seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	for {
		if err := c.ec.cancelled(); err != nil {
			return nil, err
		}
		if c.rpos < len(c.ready) {
			end := min(c.rpos+execBatchSize, len(c.ready))
			b := c.ready[c.rpos:end]
			c.rpos = end
			c.ost.out += len(b)
			c.st.OutputSize = c.ost.out
			return b, nil
		}
		if c.flushed {
			c.done = true
			return nil, nil
		}
		v, ok, err := c.peekCtx()
		if err != nil {
			return nil, err
		}
		if !ok {
			c.ready, c.rpos = c.pending, 0
			c.pending = nil
			c.flushed = true
			continue
		}
		c.inPos++ // consume v
		c.ost.ran = true
		c.ost.in++
		c.st.InputSize = c.ost.in
		start := time.Now()
		rs, err := c.o.evalOne(c.ec, v, c.st, c.ost)
		c.st.Duration += time.Since(start)
		if err != nil {
			return nil, err
		}
		c.pending = core.MergeOrSelf(c.pending, rs)
		if nxt, ok, err := c.peekCtx(); err != nil {
			return nil, err
		} else if ok {
			// Future context nodes are > nxt... >= nxt, and forward-axis
			// results never precede their context node, so pending
			// entries below nxt are final.
			cut := searchNodes(c.pending, nxt)
			c.ready, c.rpos = c.pending[:cut], 0
			c.pending = c.pending[cut:]
		}
	}
}

func (c *posFilterCursor) close() { c.in.close() }

// axisTestFirstK evaluates axis::test for one context node, stopping
// after the first k candidates. For the streaming partitioning axes
// the early stop reaches the staircase kernels — the rest of the
// partition is skipped, never scanned; the remaining (positional,
// cheap) axes evaluate normally and truncate.
func (ec *execCtx) axisTestFirstK(a axis.Axis, test xpath.NodeTest, c int32, k int, st *StepStats, ost *opStat) ([]int32, error) {
	base := a
	switch a {
	case axis.Descendant, axis.Following:
	case axis.DescendantOrSelf:
		base = axis.Descendant
	default:
		nodes, err := ec.axisTest(a, test, []int32{c}, st, ost)
		if len(nodes) > k {
			nodes = nodes[:k]
		}
		return nodes, err
	}
	d := ec.env.Doc
	var out []int32
	if a == axis.DescendantOrSelf && nodePassesTest(d, a, test, c) {
		out = append(out, c)
	}
	co := ec.coreOptions(st)
	var kernel core.JoinCursor
	var err error
	if list, pushed := ec.pushdown(test, st, ost); pushed {
		kernel, err = core.NewJoinNodeListCursor(d, base, list, core.SliceSource([]int32{c}), &co)
	} else {
		co.Emit = emitFor(d, base, test)
		kernel, err = core.NewJoinCursor(d, base, core.SliceSource([]int32{c}), &co)
	}
	if err != nil {
		return nil, err
	}
	buf := make([]int32, 0, 64)
	for len(out) < k {
		b, err := kernel.Next(buf[:0], 0)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		out = append(out, b[:min(k-len(out), len(b))]...)
	}
	return out, nil
}

// --- Merge -----------------------------------------------------------------

func (o *mergeOp) open(ec *execCtx, whole bool) (cursor, error) {
	c := reuse[mergeCursor](ec, o.id)
	*c = mergeCursor{ec: ec, ost: &ec.ops[o.id], ins: make([]mergeIn, len(o.ins)), whole: whole}
	for i, in := range o.ins {
		b, err := in.open(ec, whole)
		if err != nil {
			c.close()
			return nil, err
		}
		c.ins[i].c = b
	}
	c.ost.ran = true
	return c, nil
}

// mergeCursor is the '|' union: whole, the branches' results merged
// pairwise; streaming, a k-way merge with duplicate elimination over the
// branch cursors.
type mergeCursor struct {
	ec    *execCtx
	ost   *opStat
	ins   []mergeIn
	buf   growBuf
	whole bool
	done  bool
}

// mergeIn is one branch of a merge: its cursor and current batch.
type mergeIn struct {
	c    cursor
	head []int32
	pos  int
	fin  bool
}

func (c *mergeCursor) next(seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	if err := c.ec.cancelled(); err != nil {
		return nil, err
	}
	if c.whole {
		c.done = true
		var acc []int32
		for i := range c.ins {
			b, err := drain(c.ins[i].c)
			if err != nil {
				return nil, err
			}
			c.ost.in += len(b)
			acc = core.MergeOrSelf(acc, b)
		}
		c.ost.out = len(acc)
		return acc, nil
	}
	out := c.buf.take()
	for len(out) < cap(out) {
		// Refill exhausted heads.
		for i := range c.ins {
			in := &c.ins[i]
			for !in.fin && in.pos >= len(in.head) {
				b, err := in.c.next(seek)
				if err != nil {
					return nil, err
				}
				if b == nil {
					in.fin = true
					break
				}
				c.ost.in += len(b)
				in.head, in.pos = b, 0
			}
		}
		least := int32(math.MaxInt32)
		found := false
		for i := range c.ins {
			if in := &c.ins[i]; !in.fin && in.head[in.pos] < least {
				least = in.head[in.pos]
				found = true
			}
		}
		if !found {
			c.done = true
			break
		}
		for i := range c.ins {
			if in := &c.ins[i]; !in.fin && in.head[in.pos] == least {
				in.pos++
			}
		}
		out = append(out, least)
	}
	c.ost.out += len(out)
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

func (c *mergeCursor) close() {
	for _, in := range c.ins {
		if in.c != nil {
			in.c.close()
		}
	}
}

// --- public streaming surface ----------------------------------------------

// RunCursor is a streaming execution of a plan: an iterator over the
// result sequence in document-ordered batches. It is single-use and
// not safe for concurrent use (open a cursor per evaluation; the plan
// itself stays shareable).
type RunCursor struct {
	ec        *execCtx
	root      cursor
	seek      int32
	done      bool
	exhausted bool
}

// open starts an execution: the root operator's cursor, streaming or
// whole.
func (p *Plan) open(ctx context.Context, initial []int32, whole bool) (RunCursor, error) {
	ec := p.newExecCtx(ctx, initial)
	root, err := p.root.open(ec, whole)
	return RunCursor{ec: ec, root: root}, err
}

// Cursor opens a streaming execution with the given initial context
// (nil ctx never cancels). The caller should Close the cursor when
// done; draining it closes it implicitly.
func (p *Plan) Cursor(ctx context.Context, initial []int32) (*RunCursor, error) {
	c, err := p.open(ctx, initial, false)
	if err != nil {
		return nil, err
	}
	return &c, nil
}

// CursorRoot opens a streaming execution with the document root as
// initial context.
func (p *Plan) CursorRoot(ctx context.Context) (*RunCursor, error) {
	return p.Cursor(ctx, []int32{p.env.Doc.Root()})
}

// Next returns the next batch of result nodes (strictly increasing
// pre ranks, valid until the following Next call), or nil when the
// result is exhausted. "cursor.next" is the fault-injection point for
// mid-stream operator failure.
func (c *RunCursor) Next() ([]int32, error) {
	if c.done {
		return nil, nil
	}
	if err := fault.HitCtx(c.ec.ctx, "cursor.next"); err != nil {
		c.done = true
		return nil, err
	}
	b, err := c.root.next(c.seek)
	if err != nil {
		c.done = true
		return nil, err
	}
	if b == nil {
		c.done, c.exhausted = true, true
	}
	return b, nil
}

// Seek hints that the caller will ignore result nodes with pre ranks
// below the given rank; subsequent batches may omit them, with the
// skipped document regions never scanned.
func (c *RunCursor) Seek(pre int32) {
	if pre > c.seek {
		c.seek = pre
	}
}

// Exhausted reports whether the cursor produced its complete result.
func (c *RunCursor) Exhausted() bool { return c.exhausted }

// Close releases the cursor. Idempotent; safe after exhaustion.
func (c *RunCursor) Close() { c.root.close() }
