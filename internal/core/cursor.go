// Staircase join cursors: the one body of every kernel family. A cursor
// runs the partitioned scan of Algorithms 2–4 (the document ancestor
// cursor: a climb of the parent column per partition) over a window of
// positions and suspends when the window is used up; Next runs it at
// cap(dst), and Join / JoinNodeList run it once at an unbounded window
// into a scratch Equation (1) sizes, and return an exact copy of what
// it wrote (the list descendant, following and preceding joins, whose
// list range the result nearly fills, into the result itself).
// Consumers that stop early — LIMIT, existence probes, positional
// predicates — therefore never pay for document regions beyond what
// they consumed: the skipping argument of §3.3 extends from "skip what
// cannot qualify" to "never touch what nobody asked for".
//
// Four rules shape every kernel here and in cursor_list.go:
//
//   - The window is the only difference between the two faces. One
//     next(dst, window, seek) visits at most window positions (document
//     nodes compared or copied, list entries, partitions opened), so the
//     time to Next's first batch is a property of the buffer the
//     consumer hands in, not of how selective the emit test is. (An
//     ancestor climb reads its chain whole, at most h nodes: a window
//     too short for it parks the chain and spends a position per node
//     handed out.) Every position yields at most one node, and Join's
//     scratch holds a bound on the result (wholeBound), so the scan
//     writes dst[k] with indexed stores and never checks for room.
//   - Context by the batch. The context arrives through a NodeSource a
//     batch at a time (Join hands in the pruned staircase, the raw
//     context, or the one node that decides the result); the kernel
//     keeps the batch as a slice and prunes it as it reads (§3.1 applied
//     on the fly: a running post-rank maximum for descendant; for
//     ancestor one post compare of each context node with the previous
//     one, which the climb makes by stopping on it). A chain of
//     cursors evaluates a whole path without materialising intermediate
//     node sequences.
//   - Following stops pulling. In document order every context node with
//     a smaller post rank than the first one lies inside the first one's
//     subtree, so the following kernels read the context up to the first
//     node beyond that subtree and never call the source again; upstream
//     cursors stay suspended where they are. Preceding needs the last
//     context node and drains.
//   - Scan in locals, one emit test. next copies position, bound, columns
//     and mask into locals, counts its work in locals, adds it to Stats
//     once per call, and applies Options.Emit inside the scan.
//
// Every cursor additionally accepts a seekPre hint on Next: the caller
// promises to ignore result nodes with pre < seekPre, so the cursor
// may jump its scan position (or gallop through its node list) forward
// instead of producing them. Skipped document nodes are accounted in
// Stats.Skipped like the kernels' own empty-region skips.
package core

import (
	"staircase/internal/axis"
	"staircase/internal/doc"
)

// NodeSource yields the context in document order a batch at a time:
// each call returns the next non-empty run of pre ranks (non-decreasing
// within and across batches), valid and read-only until the following
// call, or nil once the context is exhausted. Errors propagate out of
// the cursor's Next. A cursor stops calling its source as soon as no
// further context node can change its result — after the nil, and for
// the following axis after the first node beyond the first context
// node's subtree — and never calls it again afterwards.
type NodeSource func() ([]int32, error)

// SliceSource adapts a materialised context sequence to a NodeSource
// that yields the slice once.
func SliceSource(nodes []int32) NodeSource {
	return func() ([]int32, error) {
		b := nodes
		nodes = nil
		if len(b) == 0 {
			return nil, nil
		}
		return b, nil
	}
}

// JoinCursor is a resumable staircase join. Next scans the next window
// of at most cap(dst) positions (len(dst) == 0, cap(dst) > 0) and returns
// the result nodes found in it, in dst: strictly increasing pre ranks
// continuing past the previous batch. The return value distinguishes two
// "nothing" cases: nil means the join is exhausted, an empty non-nil
// batch means the window was used up before any node passed — pull
// again. Result nodes with pre < seekPre may be omitted (the caller's
// promise to ignore them); passing 0 disables seeking. Cursors are
// single-use and not safe for concurrent use.
type JoinCursor interface {
	Next(dst []int32, seekPre int32) ([]int32, error)
}

// NewJoinCursor returns a resumable staircase join over the full
// document for one of the four partitioning axes. The context arrives
// through src in document order; opts selects variant, emit test, OrSelf
// and stats exactly like Join.
func NewJoinCursor(d *doc.Document, a axis.Axis, src NodeSource, opts *Options) (JoinCursor, error) {
	return newCursor(d, a, nil, false, src, opts)
}

// NewJoinNodeListCursor returns a resumable staircase join over a
// pre-sorted node list (an index fragment) instead of the whole
// document — the streaming face of JoinNodeList. Partition boundaries,
// copy-phase guarantees, subtree jumps and seek targets are located by
// galloping from the current list position (searchFrom), so a
// downstream consumer that stops early or seeks forward never rescans
// fragment prefixes. Like JoinNodeList it ignores opts.Emit and
// opts.OrSelf.
func NewJoinNodeListCursor(d *doc.Document, a axis.Axis, list []int32, src NodeSource, opts *Options) (JoinCursor, error) {
	return newCursor(d, a, list, true, src, opts)
}

func newCursor(d *doc.Document, a axis.Axis, list []int32, useList bool, src NodeSource, opts *Options) (JoinCursor, error) {
	o := opts.orDefault()
	k := kernel{
		ctxIn: ctxIn{src: src}, d: d, st: o.Stats, emit: o.Emit, variant: o.Variant, orSelf: o.OrSelf,
		done: useList && len(list) == 0, // nothing to intersect with: the context is never read
	}
	switch {
	case a == axis.Descendant && useList:
		return &descListCursor{kernel: k, list: list}, nil
	case a == axis.Descendant:
		return &descCursor{kernel: k}, nil
	case a == axis.Ancestor && useList:
		return &ancListCursor{kernel: k, list: list}, nil
	case a == axis.Ancestor:
		return &ancCursor{kernel: k}, nil
	case a == axis.Following && useList:
		return &folListCursor{kernel: k, list: list}, nil
	case a == axis.Following:
		return &folCursor{kernel: k}, nil
	case a == axis.Preceding && useList:
		return &precListCursor{kernel: k, list: list}, nil
	case a == axis.Preceding:
		return &precCursor{kernel: k}, nil
	default:
		return nil, errNonPartitioning(a)
	}
}

// unbounded is the window Join and JoinNodeList run a kernel at: more
// positions than any document or list holds, and small enough that a
// position plus the window stays inside int32.
const unbounded = 1 << 30

// holding returns the kernel Join and JoinNodeList run: its context is
// already in hand, as held, its one batch (the raw context an ancestor
// kernel prunes as it reads, or the one node that decides a following
// or preceding result), or as stair, the staircase descendant pruning
// left of it. The n context nodes they were taken from count as read.
func (o *Options) holding(d *doc.Document, held, stair []int32, n int) kernel {
	return kernel{
		ctxIn: ctxIn{ctx: held, run: stair, seen: int32(n - len(held)), srcDone: true},
		d:     d, st: o.Stats, emit: o.Emit, variant: o.Variant, orSelf: o.OrSelf,
	}
}

func (s *Stats) addContext(n int64) {
	if s != nil {
		s.ContextSize += n
	}
}

// --- context input ---------------------------------------------------------

// ctxIn is a kernel's read position in its context: the batch it holds,
// how far it has read it, and descendant pruning's state, which reads
// ahead in runs: the survivors it has confirmed behind the one it
// returns, at most one window of them, wait in run — a subslice of the
// batch, or of the staircase Join hands in — and come out one load each.
// The ancestor kernels read one node at a time.
type ctxIn struct {
	src     NodeSource
	ctx     []int32 // the batch being read
	ci      int32   // next unread index of ctx
	run     []int32 // pruning survivors read ahead, in document order
	ri      int     // next unopened index of run
	seen    int32   // context nodes read since the last Stats flush
	srcDone bool    // the source is retired: never called again
	floor   int32   // descendant: one above the largest post rank read
}

// fill replaces the (fully read) batch with the next one; false means
// the context is exhausted.
func (c *ctxIn) fill() (bool, error) {
	c.ctx, c.ci = nil, 0
	if c.srcDone {
		return false, nil
	}
	b, err := c.src()
	if err != nil || b == nil {
		c.srcDone = true
		return false, err
	}
	c.ctx = b
	return true, nil
}

// descRun reads on to the next context node surviving descendant
// pruning — the first one whose post rank exceeds every earlier one's —
// and leaves it in run with the survivors right behind it, at most lim
// in all. false: the context is exhausted.
func (c *ctxIn) descRun(post []int32, lim int) (bool, error) {
	c.run, c.ri = nil, 0
	for {
		b := c.ctx[c.ci:]
		for i, v := range b {
			if p := post[v]; p >= c.floor {
				n := i + 1
				for n < len(b) && n-i < lim && post[b[n]] > p {
					p = post[b[n]]
					n++
				}
				c.run, c.floor = b[i:n], p+1
				c.ci += int32(n)
				c.seen += int32(n)
				return true, nil
			}
		}
		c.seen += int32(len(b))
		if ok, err := c.fill(); !ok {
			return false, err
		}
	}
}

// nextStair takes the next staircase node for a descendant partition
// to own and returns it with the pre rank that ends the partition: the
// staircase node after it, or the document size if there is none. It
// returns owner -1, with the source's error if any, once the context is
// exhausted; the kernel is then done. The cursors inline its common
// case, run holding both nodes: calling it for every partition ran the
// list descendant steps of BenchmarkKernelFamilies 8–11 % slower.
func (c *kernel) nextStair(post []int32, lim int) (owner, end int32, err error) {
	if c.ri == len(c.run) {
		if ok, err := c.descRun(post, lim); !ok {
			c.done = true
			return -1, 0, err
		}
	}
	owner = c.run[c.ri]
	c.ri++
	if c.ri == len(c.run) {
		if _, err := c.descRun(post, lim); err != nil {
			c.done = true
			return -1, 0, err
		}
	}
	if c.ri < len(c.run) {
		return owner, c.run[c.ri], nil
	}
	return owner, int32(len(post)), nil
}

// reduceFollowing reads the context up to the first node beyond the
// first context node's subtree and returns the minimum-post node among
// those read — the one node that determines the following result (§3.1).
// Every later context node follows the first one, so its post rank is
// larger. The source is retired on return.
func (c *ctxIn) reduceFollowing(d *doc.Document) (best int32, ok bool, err error) {
	post := d.PostSlice()
	best, hi := int32(-1), int32(-1) // hi: last pre rank of the first node's subtree
	for {
		for _, v := range c.ctx[c.ci:] {
			c.seen++
			if best < 0 {
				best, hi = v, v+d.SubtreeSize(v)
			} else if post[v] < post[best] {
				best = v
			}
			if v >= hi { // pres only rise: nothing later fits inside
				c.srcDone = true
				return best, true, nil
			}
		}
		if more, err := c.fill(); !more {
			return best, best >= 0 && err == nil, err
		}
	}
}

// reducePreceding drains the context and returns its last node, the
// maximum-pre node that determines the preceding result (§3.1).
func (c *ctxIn) reducePreceding() (last int32, ok bool, err error) {
	for {
		if n := int32(len(c.ctx)); c.ci < n {
			last, ok = c.ctx[n-1], true
			c.seen += n - c.ci
		}
		if more, err := c.fill(); !more {
			return last, ok && err == nil, err
		}
	}
}

// kernel is the state every cursor shares: the context input, the
// document and the emit test (next binds its columns to locals), and
// the open partition's boundary.
type kernel struct {
	ctxIn
	d       *doc.Document
	st      *Stats
	emit    Emit
	bound   int32 // boundary post rank of the open partition
	variant Variant
	orSelf  bool // descendant, ancestor: emit each staircase node passing the test
	inPart  bool // a partition (or the one region) is open
	done    bool
}

// finish folds one call's counters into Stats and shapes the return
// value: nil once the kernel is exhausted and nothing passed, else the
// k nodes written to dst (possibly none: the window was used up).
func (c *kernel) finish(dst []int32, k, pruned int, copied, compared, skipped int64, err error) ([]int32, error) {
	c.st.addContext(int64(c.seen))
	c.st.addScan(pruned, copied, compared, skipped, k)
	c.seen = 0
	if err != nil {
		c.done = true
		return nil, err
	}
	if k == 0 && c.done {
		return nil, nil
	}
	return dst[:k], nil
}

// --- descendant, full document --------------------------------------------

// descCursor runs the descendant axis: partitions delimited by pruned
// context survivors, each scanned copy-phase-then-compare and suspended
// whenever the window is used up. Under OrSelf the position that opens a
// partition emits its staircase node.
type descCursor struct {
	kernel
	pos, end int32 // scan position and partition end (exclusive)
	copyEnd  int32 // copy-phase end (exclusive; SkipEstimate)
}

func (c *descCursor) Next(dst []int32, seek int32) ([]int32, error) {
	return c.next(dst, cap(dst), seek)
}

func (c *descCursor) next(dst []int32, window int, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	dst = dst[:cap(dst)]
	e, post := c.emit.cols(c.d), c.d.PostSlice()
	estimate, skip, self := c.variant == SkipEstimate, c.variant != NoSkip, c.orSelf
	k, pruned, w := 0, 0, int32(window)
	pos, end, copyEnd, bound := c.pos, c.end, c.copyEnd, c.bound
	var copied, skipped int64
	var err error
	for {
		// The partition [pos, end) is open, or empty.
		if seek > pos && pos < end {
			j := min(seek, end)
			skipped += int64(j - pos)
			pos = j
		}
		// Copy phase: the first post(c)−pre(c) nodes after c are
		// guaranteed descendants (Equation (1) lower bound), no post
		// comparison.
		if n := min(copyEnd-pos, w); n > 0 {
			k = e.emitRange(dst, k, pos, pos+n-1)
			copied += int64(n)
			w -= n
			pos += n
		}
		// Scan phase: compare post ranks against the boundary. Under
		// skipping it ends at the first node outside the boundary — the
		// rest of the partition is an empty region of type Z (Figure 7
		// (b)); after a copy phase at most h nodes remain.
		if pos >= copyEnd {
			p, stop := pos, pos+min(end-pos, w)
			for ; p < stop; p++ {
				if post[p] >= bound {
					if skip {
						break
					}
				} else if e.pass(p) {
					dst[k] = p
					k++
				}
			}
			w -= p - pos
			if p < stop { // the breaking node was compared too
				w--
				skipped += int64(end - 1 - p)
				p = end
			}
			pos = p
		}
		if pos < end || w == 0 { // the window is used up
			break
		}
		// Open the next partition: the next staircase node owns it, the
		// one after it ends it.
		var owner int32
		if i := c.ri; i+1 < len(c.run) { // nextStair's common case
			owner, end = c.run[i], c.run[i+1]
			c.ri = i + 1
		} else if owner, end, err = c.nextStair(post, int(w)); owner < 0 {
			break
		}
		pos, bound, copyEnd = owner+1, post[owner], owner+1 // no copy phase
		if self && e.pass(owner) {
			dst[k] = owner
			k++
		}
		if estimate {
			copyEnd = min(bound+1, end) // pres <= post(owner): Equation (1)
		}
		pruned++
		w--
	}
	c.pos, c.end, c.copyEnd, c.bound = pos, end, copyEnd, bound
	compared := int64(window) - int64(w) - int64(pruned) - copied // the rest of the window
	return c.finish(dst, k, pruned, copied, compared, skipped, err)
}

// --- ancestor, full document ----------------------------------------------

// ancCursor runs the ancestor axis: partition [from, c) ends at a context
// node c and holds the ancestors of c at or beyond from and nothing else.
// So the cursor climbs the parent column from c to the first node before
// from (or before the seek hint): it reads the partition's result, counts
// that as compared, and skips the rest of the partition. The climb also
// prunes (§3.1): it reads the raw context, drops duplicates only, and a
// climb that stops on the previous context node has found that node
// covered — an ancestor of c — so its partition merges into c's. A
// window too short for a chain parks it in chain and hands it out over
// the next calls.
type ancCursor struct {
	kernel
	from  int32   // next partition start: one past the last context node read
	chain []int32 // a parked chain, top-down, in buf
	buf   []int32 // height+1 nodes, allocated on first need
}

func (c *ancCursor) Next(dst []int32, seek int32) ([]int32, error) {
	return c.next(dst, cap(dst), seek)
}

func (c *ancCursor) next(dst []int32, window int, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	dst = dst[:cap(dst)]
	h := c.d.Height()
	k, pruned, w, from := 0, 0, int32(window), c.from
	var read int64
	var err error
	for w > 0 {
		if len(c.chain) > 0 { // the parked chain
			m := copy(dst[k:k+min(len(c.chain), int(w))], c.chain)
			k, w, c.chain = k+m, w-int32(m), c.chain[m:]
			continue
		}
		if int(c.ci) == len(c.ctx) { // the batch is read: the next one may be empty
			var more bool
			if more, err = c.fill(); !more {
				c.done = true
				break
			}
			continue
		}
		n, p, r := 0, 0, int64(0)
		if w > h { // the window holds any chain: climb into dst
			n, p, k, w, from, r = c.climb(dst, k, c.ctx[c.ci:], w, from, seek)
		} else {
			if c.buf == nil {
				c.buf = make([]int32, h+1)
			}
			var m int
			n, p, m, _, from, r = c.climb(c.buf, 0, c.ctx[c.ci:c.ci+1], h+1, from, seek)
			c.chain, w = c.buf[:m], w-1 // the chain costs a position per node handed out
		}
		c.ci += int32(n)
		c.seen += int32(n)
		pruned += p
		read += r
	}
	skipped := int64(from-c.from) - int64(pruned) - read // the partitions' rest
	c.from = from
	return c.finish(dst, k, pruned, 0, read, skipped, err)
}

// climb runs the partitions of the context nodes in ctx while the window
// w holds any chain (w > h): for each node c it climbs the parent column
// from c to the first node before max(from, seek), writes the nodes read
// that pass the emit test to out[k:] top-down, and c itself after them
// under OrSelf. A climb that stops on the previous context node p =
// from−1 has found p covered: p's partition merges into c's, p counts as
// read, and it is emitted ahead of c's chain unless OrSelf emitted it
// already. Where a seek cut the climb short of p, one post compare
// decides coverage. Reading a context node (opening its partition, or
// dropping a duplicate) and reading a chain node cost a position each,
// so the nodes read are the positions used less the context nodes. It
// returns the context nodes it read, the partitions it opened net of
// those merged (negative when it merges one a previous call opened), the
// new k, w and from, and the nodes read.
func (c *ancCursor) climb(out []int32, k int, ctx []int32, w, from, seek int32) (int, int, int, int32, int32, int64) {
	parent, post, h := c.d.ParentSlice(), c.d.PostSlice(), c.d.Height()
	e, orSelf := c.emit.cols(c.d), c.orSelf
	// A node with a child is an element, or the root at pre 0: the kind
	// test is decided once, and only a name test reads a column.
	elem, name, id, root := int32(e.mask>>doc.Elem&1), e.name, e.id, e.pass(0)
	w0, i, dropped := w, 0, 0 // dropped: duplicates and merged partitions
	for ; i < len(ctx) && w > h; i++ {
		owner, prev := ctx[i], from-1
		w--
		if owner == prev {
			dropped++
			continue
		}
		lo, n := max(from, seek), int32(k)
		v := parent[owner]
		for ; v >= lo && v > 0; v = parent[v] {
			out[n] = v
			if name == nil || name[v] == id {
				n += elem
			}
			w--
		}
		if v == 0 && lo == 0 {
			out[n] = 0
			if root {
				n++
			}
			w--
		}
		if prev >= 0 {
			if v == prev && prev >= seek { // the climb stopped on prev: prev lies above owner
				if !orSelf {
					out[n] = prev
					switch {
					case prev == 0:
						if root {
							n++
						}
					case name == nil || name[prev] == id:
						n += elem
					}
				}
				w--
				dropped++
			} else if prev < seek && post[owner] < post[prev] {
				dropped++
			}
		}
		for a, b := k, int(n)-1; a < b; a, b = a+1, b-1 {
			out[a], out[b] = out[b], out[a]
		}
		k = int(n)
		if orSelf && e.pass(owner) {
			out[k] = owner
			k++
		}
		from = owner + 1
	}
	return i, i - dropped, k, w, from, int64(w0-w) - int64(i)
}

// --- following / preceding, full document ---------------------------------

// folCursor runs the following axis: the context reduces to its
// minimum-post node, found inside the first context node's subtree (§3.1),
// then the cursor copies the document suffix beyond that node's subtree
// — every node there follows it — window by window.
type folCursor struct {
	kernel
	pos int32
}

func (c *folCursor) Next(dst []int32, seek int32) ([]int32, error) {
	return c.next(dst, cap(dst), seek)
}

func (c *folCursor) next(dst []int32, window int, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	pruned := 0
	if !c.inPart {
		best, ok, err := c.reduceFollowing(c.d)
		if !ok {
			c.done = true
			return c.finish(dst, 0, 0, 0, 0, 0, err)
		}
		c.pos = best + 1 + c.d.SubtreeSize(best)
		c.inPart, pruned = true, 1
	}
	dst = dst[:cap(dst)]
	n, k := int32(c.d.Size()), 0
	var skipped int64
	if seek > c.pos {
		j := min(seek, n)
		skipped = int64(j - c.pos)
		c.pos = j
	}
	end := c.pos + min(n-c.pos, int32(window))
	if c.pos < end {
		e := c.emit.cols(c.d)
		k = e.emitRange(dst, 0, c.pos, end-1)
	}
	copied := int64(end - c.pos)
	c.pos, c.done = end, end >= n
	return c.finish(dst, k, pruned, copied, 0, skipped, nil)
}

// precCursor runs the preceding axis: the context reduces to its
// maximum-pre node (a full drain: it is the last one), then the cursor
// scans [0, c) against the boundary post rank window by window. Every
// node there is an ancestor of c (at most h many) or precedes it.
type precCursor struct {
	kernel
	pos, end int32
}

func (c *precCursor) Next(dst []int32, seek int32) ([]int32, error) {
	return c.next(dst, cap(dst), seek)
}

func (c *precCursor) next(dst []int32, window int, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	pruned := 0
	if !c.inPart {
		last, ok, err := c.reducePreceding()
		if !ok {
			c.done = true
			return c.finish(dst, 0, 0, 0, 0, 0, err)
		}
		c.end, c.bound = last, c.d.Post(last)
		c.inPart, pruned = true, 1
	}
	dst = dst[:cap(dst)]
	var skipped int64
	if seek > c.pos {
		j := min(seek, c.end)
		skipped = int64(j - c.pos)
		c.pos = j
	}
	end := c.pos + min(c.end-c.pos, int32(window))
	e := c.emit.cols(c.d)
	k := e.emitBelow(dst, c.d.PostSlice(), c.bound, c.pos, end)
	compared := int64(end - c.pos)
	c.pos, c.done = end, end >= c.end
	return c.finish(dst, k, pruned, 0, compared, skipped, nil)
}
