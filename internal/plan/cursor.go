// The cursor executor: the streaming face of the physical operators.
//
// Every operator implements open(ec) (cursor, error); a cursor yields
// the operator's result as a sequence of bounded, strictly increasing
// preorder batches (at most execBatchSize nodes per batch), pulled on
// demand. Downstream consumers that stop early — Plan.RunLimit, the
// engine's EvalFirst/EvalLimit, existence probes, positional [k]
// predicates — simply stop pulling, and the suspended staircase kernels
// (core.JoinCursor) never scan the document regions nobody asked for.
// A join hands its kernel the batch buffer and takes back what one
// window of that many positions yielded, node test applied inside the
// scan; its context reaches the kernel as the input cursor's batches.
// Memory stays bounded by the batch size for the pipelined operators;
// the few inherently blocking spots (AxisStep's positional lookups,
// reverse-axis PosFilter, the context drain of preceding) materialize
// exactly what the semantics force them to. A following step reads its
// context only as far as the first context node's subtree reaches and
// leaves the operators below it suspended there.
//
// next additionally accepts a seekPre hint — the consumer's promise to
// ignore result nodes with pre < seekPre — which operators translate
// into scan-position jumps and node-list gallops inside the core
// kernels (SemiJoin turns fragment spans into such hints; the public
// Plan cursor exposes it as Seek).
//
// The materializing executor (op.run) remains the EXPLAIN and
// full-result path; the differential suite pins cursor execution to
// byte-identical node sequences.

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
// execBatchSize so a LIMIT 1 / EvalFirst consumer pays for a 16-node
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

// cursor is the streaming face of one physical operator. next returns
// the next batch (strictly increasing pre ranks, each batch continuing
// past the previous one) or nil when exhausted; batches are valid only
// until the following next call. seekPre is the consumer's promise to
// ignore nodes below it (0 disables). close releases the cursor chain;
// it is idempotent.
type cursor interface {
	next(seekPre int32) ([]int32, error)
	close()
}

// invariantChecks enables internal executor assertions (the
// equivalence suite turns it on; production code leaves it off).
var invariantChecks bool

// EnableInvariantChecks toggles internal executor assertions, such as
// the PosFilter sorted-concatenation invariant. Test-only.
func EnableInvariantChecks(on bool) { invariantChecks = on }

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

// sliceCursor batches out a materialised node sequence, honouring
// seek by binary search.
type sliceCursor struct {
	nodes  []int32
	pos    int
	onEmit func(n int)
}

func (c *sliceCursor) next(seek int32) ([]int32, error) {
	if seek > 0 && c.pos < len(c.nodes) && c.nodes[c.pos] < seek {
		c.pos += searchNodes(c.nodes[c.pos:], seek)
	}
	if c.pos >= len(c.nodes) {
		return nil, nil
	}
	end := c.pos + execBatchSize
	if end > len(c.nodes) {
		end = len(c.nodes)
	}
	b := c.nodes[c.pos:end]
	c.pos = end
	if c.onEmit != nil {
		c.onEmit(len(b))
	}
	return b, nil
}

func (c *sliceCursor) close() {}

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

// blockingCursor materializes its result on first use (a pipeline
// breaker) and then batches it out like a sliceCursor. in, when set,
// is the input pipeline the fill closure drains: close propagates into
// it.
type blockingCursor struct {
	fill   func() ([]int32, error)
	in     cursor
	sc     sliceCursor
	inited bool
}

func (c *blockingCursor) next(seek int32) ([]int32, error) {
	if !c.inited {
		nodes, err := c.fill()
		if err != nil {
			return nil, err
		}
		c.sc.nodes = nodes
		c.inited = true
	}
	return c.sc.next(seek)
}

func (c *blockingCursor) close() {
	if c.in != nil {
		c.in.close()
	}
}

// newRunCursor falls back to the materializing executor for operators
// (or whole strategies — Naive, SQL) without a streaming
// implementation: run() evaluates the operator subtree eagerly and
// the result batches out.
func newRunCursor(ec *execCtx, o op) cursor {
	return &blockingCursor{fill: func() ([]int32, error) { return o.run(ec) }}
}

// drainAll pulls a cursor to exhaustion, materialising its sequence.
func drainAll(ec *execCtx, c cursor) ([]int32, error) {
	var out []int32
	for {
		b, err := c.next(0)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b...)
	}
}

// --- Source / fragment scans ----------------------------------------------

func (o *sourceOp) open(ec *execCtx) (cursor, error) {
	var nodes []int32
	if o.docRoot {
		nodes = []int32{ec.env.Doc.Root()}
	} else {
		nodes = ec.initial
	}
	ost := &ec.ops[o.id]
	ost.ran = true
	return &sliceCursor{nodes: nodes, onEmit: func(n int) {
		ost.in += n
		ost.out += n
	}}, nil
}

func (o *fragScan) open(ec *execCtx) (cursor, error) {
	list, _, _ := o.resolve(ec)
	// Batches are released to consumers, which may filter them in
	// place; the memoised fragment is shared.
	return &sliceCursor{nodes: append([]int32(nil), list...)}, nil
}

// --- StaircaseJoin ---------------------------------------------------------

// ctxSource adapts an input cursor to a core.NodeSource — the kernel
// takes the input's batches as they are — optionally teeing every
// context node that passes the or-self self test into a pending queue
// the join stream merges back in (the streaming form of
// core.MergeOrSelf over the context).
type ctxSource struct {
	in     cursor
	inDone bool
	pulled int
	// or-self self side: the test and the columns it reads
	selfOn bool
	self   core.Emit
	kind   []doc.Kind
	name   []int32
	pend   []int32
}

func (s *ctxSource) next() ([]int32, error) {
	if s.inDone {
		return nil, nil
	}
	b, err := s.in.next(0)
	if err != nil || b == nil {
		s.inDone = true
		return nil, err
	}
	s.pulled += len(b)
	if s.selfOn {
		for _, v := range b {
			if s.self.Pass(s.kind[v], s.name[v]) {
				s.pend = append(s.pend, v)
			}
		}
	}
	return b, nil
}

// drain exhausts the underlying input (populating the self queue).
func (s *ctxSource) drain() error {
	for {
		if b, err := s.next(); err != nil || b == nil {
			return err
		}
	}
}

// takePend pops the pending self nodes <= hi, dropping those below the
// seek hint.
func (s *ctxSource) takePend(hi, seek int32) []int32 {
	i := 0
	for i < len(s.pend) && s.pend[i] <= hi {
		i++
	}
	out := s.pend[:i]
	s.pend = s.pend[i:]
	j := 0
	for j < len(out) && out[j] < seek {
		j++
	}
	return out[j:]
}

// streamPush decides name-test pushdown for the cursor executor. The
// materializing path decides from the actual context's touch bound;
// a streaming join never sees its whole context up front, so the
// cursor pushes whenever the fragment comes from the shared index
// (binary-search bounded partitions beat rescans in every regime the
// cost model distinguishes) and under PushAlways even without it.
func streamPush(opts *Options, indexed bool) bool {
	return opts.Pushdown == PushAlways || indexed
}

func (o *joinOp) open(ec *execCtx) (cursor, error) {
	if !ec.opts.Strategy.staircase() {
		return newRunCursor(ec, o), nil
	}
	in, err := o.in.open(ec)
	if err != nil {
		return nil, err
	}
	d := ec.env.Doc
	st := &ec.steps[o.meta.ord-1]
	ost := &ec.ops[o.id]
	ost.ran = true
	co := &core.Options{Variant: o.variant, Stats: &st.Core}

	src := &ctxSource{in: in}

	pushed := false
	var frag []int32
	if o.frag != nil && ec.opts.Pushdown != PushNever {
		if list, indexed, ok := o.frag.resolve(ec); ok && streamPush(ec.opts, indexed) {
			pushed = true
			st.Pushed, st.Indexed = true, indexed
			ost.pushed, ost.indexed = true, indexed
			ost.fragSize = len(list)
			frag = list
		}
	}
	if o.orSelf || !pushed {
		emit := emitFor(d, o.base, o.test)
		if o.orSelf {
			// (Under docNode the implicit document node's descendant set
			// includes the root element itself: the same self side.)
			src.selfOn, src.self = true, emit
			src.kind, src.name = d.KindSlice(), d.NameSlice()
		}
		if !pushed {
			co.Emit = emit // a fragment already is the test
		}
	}
	var kernel core.JoinCursor
	if pushed {
		kernel, err = core.NewJoinNodeListCursor(d, o.base, frag, src.next, co)
	} else {
		kernel, err = core.NewJoinCursor(d, o.base, src.next, co)
	}
	if err != nil {
		in.close()
		return nil, err
	}
	return &joinStreamCursor{ec: ec, st: st, ost: ost, src: src, kernel: kernel}, nil
}

type joinStreamCursor struct {
	ec     *execCtx
	st     *StepStats
	ost    *opStat
	src    *ctxSource
	kernel core.JoinCursor
	buf    growBuf

	kernelDone bool
	done       bool
}

func (c *joinStreamCursor) next(seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	start := time.Now()
	out, err := c.pull(seek)
	c.st.Duration += time.Since(start)
	return out, err
}

// pull asks the kernel for windows until one yields nodes (the kernel's
// own output is the step's result: the emit test runs inside its scan)
// or the join is exhausted.
func (c *joinStreamCursor) pull(seek int32) ([]int32, error) {
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
		if c.src.selfOn {
			if c.kernelDone {
				// Kernels drain their context before finishing, except
				// over an empty fragment: finish the drain so the self
				// queue is complete, then flush it.
				if err := c.src.drain(); err != nil {
					return nil, err
				}
				out = core.MergeOrSelf(out, c.src.takePend(math.MaxInt32, seek))
			} else if len(out) > 0 {
				// Self nodes up to the batch ceiling can no longer be
				// interleaved by future kernel output (which is strictly
				// increasing past it).
				out = core.MergeOrSelf(out, c.src.takePend(out[len(out)-1], seek))
			}
		}
		if c.kernelDone && (!c.src.selfOn || len(c.src.pend) == 0) {
			c.done = true
		}
		c.ost.in = c.src.pulled
		c.st.InputSize = c.src.pulled
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

func (c *joinStreamCursor) close() { c.src.in.close() }

// --- SemiJoin --------------------------------------------------------------

func (o *semiJoinOp) open(ec *execCtx) (cursor, error) {
	if !ec.opts.Strategy.staircase() {
		return newRunCursor(ec, o), nil
	}
	if o.chain != nil {
		return openChain(ec, o.chain)
	}
	in, err := o.in.open(ec)
	if err != nil {
		return nil, err
	}
	st := &ec.steps[o.meta.ord-1]
	ost := &ec.ops[o.id]
	ost.ran = true
	list, indexed, _ := o.frag.resolve(ec)
	ost.indexed = indexed
	ost.fragSize = len(list)
	ost.probeDir = probeInputSeek // streaming is point-probe by nature
	return &semiJoinCursor{
		ec: ec, o: o, st: st, ost: ost, in: in,
		pr: newSemiProbe(ec.env.Doc, o.existsAxis, list),
	}, nil
}

// semiProbe is the point-probe form of the exists-semijoin: it decides
// per input node whether the node stands in the exists axis relation
// to a fragment, by binary search (descendant/ancestor) or against the
// fragment's reduction node (following/preceding) — the node-list
// join's partition arithmetic turned into point probes, plus seek
// hints derived from the fragment span. Shared by the streaming
// cursor, the materializing executor's input-probe direction, and the
// adaptive chain stages. Not safe for concurrent use (minSeek advances
// while probing): build one per execution.
type semiProbe struct {
	existsAxis axis.Axis
	d          *doc.Document
	post       []int32
	kind       []doc.Kind
	list       []int32

	prefixMax      []int32 // existsAxis == Ancestor
	minSeek        int32   // first input pre that can possibly qualify
	spanLo, spanHi int32
}

// newSemiProbe builds the probe state for one execution over a
// resolved (shared, read-only) fragment list.
func newSemiProbe(d *doc.Document, existsAxis axis.Axis, list []int32) *semiProbe {
	p := &semiProbe{
		existsAxis: existsAxis, d: d,
		post: d.PostSlice(), kind: d.KindSlice(), list: list,
	}
	if len(list) > 0 {
		p.spanLo, p.spanHi = list[0], list[len(list)-1]
		switch existsAxis {
		case axis.Ancestor:
			// prefixMax[i] = max subtree end over list[:i+1]: an input
			// node b has a fragment ancestor iff some fragment node
			// before it reaches at least b.
			p.prefixMax = make([]int32, len(list))
			m := int32(-1)
			for i, f := range list {
				if end := f + d.SubtreeSize(f); end > m {
					m = end
				}
				p.prefixMax[i] = m
			}
			p.minSeek = p.spanLo + 1
		case axis.Preceding:
			// Following-join reduction: only the minimum-post fragment
			// node matters; everything after its subtree qualifies.
			best := list[0]
			for _, f := range list[1:] {
				if p.post[f] < p.post[best] {
					best = f
				}
			}
			p.minSeek = best + 1 + d.SubtreeSize(best)
		}
	}
	return p
}

// qualifies decides the exists predicate for one input node and may
// raise p.minSeek (the next input pre that could qualify).
func (p *semiProbe) qualifies(v int32) bool {
	switch p.existsAxis {
	case axis.Descendant:
		if v >= p.spanHi {
			return false
		}
		i := searchNodes(p.list, v+1)
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
	default: // axis.Preceding
		return v >= p.minSeek
	}
}

// admit is the full per-node test: attribute nodes never qualify (the
// node-list join's output filter), below-minSeek nodes cannot stand in
// the relation, and the rest go through qualifies.
func (p *semiProbe) admit(v int32) bool {
	if v < p.minSeek || p.kind[v] == doc.Attr {
		return false
	}
	return p.qualifies(v)
}

// exhaustedAfter reports that no input node >= v can qualify, so the
// consumer may stop probing input entirely.
func (p *semiProbe) exhaustedAfter(v int32) bool {
	switch p.existsAxis {
	case axis.Descendant:
		return v >= p.spanHi
	case axis.Following:
		return v >= p.spanHi
	case axis.Ancestor:
		return p.minSeek == math.MaxInt32
	default:
		return false
	}
}

// semiJoinCursor streams the exists-semijoin: input nodes pass through
// iff they stand in the exists axis relation to the fragment, decided
// by the point probe.
type semiJoinCursor struct {
	ec   *execCtx
	o    *semiJoinOp
	st   *StepStats
	ost  *opStat
	in   cursor
	pr   *semiProbe
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
		// Filter in place: b is the producing operator's batch buffer,
		// released to us until our next pull.
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

// --- AxisStep (pipeline breaker) ------------------------------------------

func (o *axisStepOp) open(ec *execCtx) (cursor, error) {
	in, err := o.in.open(ec)
	if err != nil {
		return nil, err
	}
	return &blockingCursor{in: in, fill: func() ([]int32, error) {
		ctxNodes, err := drainAll(ec, in)
		if err != nil {
			return nil, err
		}
		if err := ec.cancelled(); err != nil {
			return nil, err
		}
		st := ec.step(o.meta, len(ctxNodes))
		start := time.Now()
		var out []int32
		if o.docNode {
			out, err = ec.docRootAxisTest(o.a, o.test, st)
		} else {
			out, err = ec.axisTest(o.a, o.test, ctxNodes, st)
		}
		st.Duration += time.Since(start)
		if err != nil {
			return nil, err
		}
		st.OutputSize = len(out)
		ec.ops[o.id].record(len(ctxNodes), len(out))
		return out, nil
	}}, nil
}

// --- PredFilter ------------------------------------------------------------

func (o *predFilterOp) open(ec *execCtx) (cursor, error) {
	if o.chain != nil {
		return openChain(ec, o.chain)
	}
	in, err := o.in.open(ec)
	if err != nil {
		return nil, err
	}
	return &predFilterCursor{
		ec: ec, o: o, in: in,
		st: &ec.steps[o.meta.ord-1], ost: &ec.ops[o.id],
	}, nil
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
	if c.done {
		return nil, nil
	}
	for {
		if err := c.ec.cancelled(); err != nil {
			return nil, err
		}
		b, err := c.in.next(seek)
		if err != nil {
			return nil, err
		}
		if b == nil {
			c.done = true
			return nil, nil
		}
		start := time.Now()
		// Filter in place: b is the producing operator's batch buffer,
		// released to us until our next pull.
		out := b[:0]
		for _, v := range b {
			ok, err := c.o.prog.holds(c.ec, v)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, v)
			}
		}
		c.st.Duration += time.Since(start)
		c.ost.ran = true
		c.ost.in += len(b)
		c.ost.out += len(out)
		c.st.OutputSize = c.ost.out
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (c *predFilterCursor) close() { c.in.close() }

// --- PosFilter -------------------------------------------------------------

func (o *posFilterOp) open(ec *execCtx) (cursor, error) {
	in, err := o.in.open(ec)
	if err != nil {
		return nil, err
	}
	st := &ec.steps[o.meta.ord-1]
	ost := &ec.ops[o.id]
	if o.docNode || o.step.Axis.Reverse() {
		// Reverse axes number proximity positions backwards and emit
		// per-context results in reverse document order: inherently
		// blocking. The document-node case is a single evaluation.
		return &blockingCursor{in: in, fill: func() ([]int32, error) {
			ctxNodes, err := drainAll(ec, in)
			if err != nil {
				return nil, err
			}
			st.InputSize = len(ctxNodes)
			start := time.Now()
			out, err := o.evalContext(ec, ctxNodes, st)
			st.Duration += time.Since(start)
			if err != nil {
				return nil, err
			}
			st.OutputSize = len(out)
			ost.record(len(ctxNodes), len(out))
			return out, nil
		}}, nil
	}
	return &posFilterCursor{ec: ec, o: o, in: in, st: st, ost: ost}, nil
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
			end := c.rpos + execBatchSize
			if end > len(c.ready) {
				end = len(c.ready)
			}
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
		rs, err := c.o.evalOneCapped(c.ec, v, c.st)
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

// evalOneCapped is evalOne with the [k] early-stop enabled (cursor
// path only: the materializing executor keeps its exact work counters).
func (o *posFilterOp) evalOneCapped(ec *execCtx, c int32, st *StepStats) ([]int32, error) {
	if k := o.firstK(); k > 0 && !o.step.Axis.Reverse() && !o.docNode && ec.opts.Strategy.staircase() {
		nodes, err := ec.axisTestFirstK(o.step.Axis, o.step.Test, c, k, st)
		if err != nil {
			return nil, err
		}
		for _, prog := range o.progs {
			nodes, err = applyPositional(ec, nodes, prog)
			if err != nil {
				return nil, err
			}
		}
		return nodes, nil
	}
	return o.evalOne(ec, c, st)
}

// axisTestFirstK evaluates axis::test for one context node, stopping
// after the first k candidates. For the streaming partitioning axes
// the early stop reaches the staircase kernels — the rest of the
// partition is skipped, never scanned; the remaining (positional,
// cheap) axes evaluate normally and truncate.
func (ec *execCtx) axisTestFirstK(a axis.Axis, test xpath.NodeTest, c int32, k int, st *StepStats) ([]int32, error) {
	base := a
	switch a {
	case axis.Descendant, axis.Following:
	case axis.DescendantOrSelf:
		base = axis.Descendant
	default:
		nodes, err := ec.axisTest(a, test, []int32{c}, st)
		if err != nil {
			return nil, err
		}
		if len(nodes) > k {
			nodes = nodes[:k]
		}
		return nodes, nil
	}
	d := ec.env.Doc
	var out []int32
	if a == axis.DescendantOrSelf && nodePassesTest(d, a, test, c) {
		out = append(out, c)
	}
	co := &core.Options{Variant: variantFor(ec.opts.Strategy)}
	if st != nil {
		co.Stats = &st.Core
	}
	var kernel core.JoinCursor
	var err error
	if ec.opts.Pushdown != PushNever && pushable(test) {
		if list, indexed, ok := pushdownList(d, test, ec.opts); ok && streamPush(ec.opts, indexed) {
			kernel, err = core.NewJoinNodeListCursor(d, base, list, core.SliceSource([]int32{c}), co)
		}
	}
	if kernel == nil && err == nil {
		co.Emit = emitFor(d, base, test)
		kernel, err = core.NewJoinCursor(d, base, core.SliceSource([]int32{c}), co)
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
		take := k - len(out)
		if take > len(b) {
			take = len(b)
		}
		out = append(out, b[:take]...)
	}
	return out, nil
}

// --- Merge -----------------------------------------------------------------

func (o *mergeOp) open(ec *execCtx) (cursor, error) {
	ins := make([]cursor, len(o.ins))
	for i, in := range o.ins {
		c, err := in.open(ec)
		if err != nil {
			return nil, err
		}
		ins[i] = c
	}
	return &mergeCursor{
		ec: ec, ost: &ec.ops[o.id], ins: ins,
		heads: make([][]int32, len(ins)), pos: make([]int, len(ins)),
		fin: make([]bool, len(ins)),
	}, nil
}

// mergeCursor is the streaming '|' union: a k-way merge with
// duplicate elimination over the branch cursors.
type mergeCursor struct {
	ec    *execCtx
	ost   *opStat
	ins   []cursor
	heads [][]int32
	pos   []int
	fin   []bool
	buf   growBuf
	done  bool
}

func (c *mergeCursor) next(seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	if err := c.ec.cancelled(); err != nil {
		return nil, err
	}
	out := c.buf.take()
	for len(out) < cap(out) {
		// Refill exhausted heads.
		for i := range c.ins {
			for !c.fin[i] && c.pos[i] >= len(c.heads[i]) {
				b, err := c.ins[i].next(seek)
				if err != nil {
					return nil, err
				}
				if b == nil {
					c.fin[i] = true
					break
				}
				c.ost.in += len(b)
				c.heads[i], c.pos[i] = b, 0
			}
		}
		min := int32(math.MaxInt32)
		found := false
		for i := range c.ins {
			if !c.fin[i] && c.pos[i] < len(c.heads[i]) && c.heads[i][c.pos[i]] < min {
				min = c.heads[i][c.pos[i]]
				found = true
			}
		}
		if !found {
			c.done = true
			break
		}
		for i := range c.ins {
			if !c.fin[i] && c.pos[i] < len(c.heads[i]) && c.heads[i][c.pos[i]] == min {
				c.pos[i]++
			}
		}
		out = append(out, min)
	}
	c.ost.ran = true
	c.ost.out += len(out)
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

func (c *mergeCursor) close() {
	for _, in := range c.ins {
		in.close()
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

// Cursor opens a streaming execution with the given initial context
// (nil ctx never cancels). The caller should Close the cursor when
// done; draining it closes it implicitly.
func (p *Plan) Cursor(ctx context.Context, initial []int32) (*RunCursor, error) {
	ec := p.newExecCtx(ctx, initial)
	root, err := p.root.open(ec)
	if err != nil {
		return nil, err
	}
	return &RunCursor{ec: ec, root: root}, nil
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

// Steps returns the per-step statistics accumulated so far (final
// after exhaustion or Close).
func (c *RunCursor) Steps() []StepStats { return c.ec.steps }

// RunLimit executes the plan through the cursor executor and stops
// after limit result nodes: the streaming LIMIT operator. The
// result's Truncated field reports whether further results may exist
// (exact when the limit was hit mid-batch; conservatively true when
// the cursor stopped exactly at the limit). limit <= 0 runs to
// completion via the materializing executor.
func (p *Plan) RunLimit(ctx context.Context, initial []int32, limit int) (*Result, error) {
	if limit <= 0 {
		return p.RunCtx(ctx, initial)
	}
	cur, err := p.Cursor(ctx, initial)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	capHint := limit
	if capHint > 4096 {
		capHint = 4096
	}
	nodes := make([]int32, 0, capHint)
	truncated := false
	for len(nodes) < limit {
		b, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		take := limit - len(nodes)
		if len(b) > take {
			truncated = true
			b = b[:take]
		}
		nodes = append(nodes, b...)
	}
	if !truncated && !cur.Exhausted() {
		truncated = true // stopped exactly at the limit: more may exist
	}
	return &Result{Nodes: nodes, Steps: cur.ec.steps, Truncated: truncated, ops: cur.ec.ops, replans: cur.ec.replans}, nil
}

// RunLimitRoot is RunLimit from the document root.
func (p *Plan) RunLimitRoot(ctx context.Context, limit int) (*Result, error) {
	return p.RunLimit(ctx, []int32{p.env.Doc.Root()}, limit)
}
