// Resumable staircase join cursors — the streaming face of the batch
// kernels in staircase.go / ancestor.go / nodelist.go.
//
// A JoinCursor produces the same node sequence as the corresponding
// batch join, but on demand: each Next call runs the batch loop over a
// bounded window of the document and returns what passed, leaving the
// partition scan suspended mid-flight. Consumers that stop early —
// LIMIT, existence probes, positional predicates — therefore never pay
// for document regions beyond what they consumed: the skipping argument
// of §3.3 extends from "skip what cannot qualify" to "never touch what
// nobody asked for".
//
// Four rules shape every kernel here and in cursor_list.go:
//
//   - The window. One Next visits at most cap(dst) positions (document
//     nodes compared or copied, list entries, partitions opened), so the
//     time to the first batch is a property of the buffer the consumer
//     hands in, not of how selective the emit test is. Every position
//     yields at most one node, so the scan writes dst[k] with indexed
//     stores and never checks for room.
//   - Context by the batch. The context arrives through a NodeSource a
//     batch at a time; the kernel keeps the batch as a slice and prunes
//     it in a tight loop (§3.1 applied on the fly: a running post-rank
//     maximum for descendant, a one-node lookahead for ancestor). A chain
//     of cursors evaluates a whole path without materialising
//     intermediate node sequences.
//   - Following stops pulling. In document order every context node with
//     a smaller post rank than the first one lies inside the first one's
//     subtree, so the following kernels read the context up to the first
//     node beyond that subtree and never call the source again; upstream
//     cursors stay suspended where they are. Preceding needs the last
//     context node and drains.
//   - Scan in locals, one emit test. Next copies position, bound, columns
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
// through src in document order; opts selects variant, emit test and
// stats exactly like Join (OrSelf and ScanLimit/ScanStart are not
// supported — cursors are serial by construction).
func NewJoinCursor(d *doc.Document, a axis.Axis, src NodeSource, opts *Options) (JoinCursor, error) {
	return newCursor(d, a, nil, false, src, opts)
}

// NewJoinNodeListCursor returns a resumable staircase join over a
// pre-sorted node list (an index fragment) instead of the whole
// document — the streaming counterpart of JoinNodeList. Partition
// boundaries, copy-phase guarantees, subtree jumps and seek targets are
// located by galloping from the current list position (searchFrom), so
// a downstream consumer that stops early or seeks forward never rescans
// fragment prefixes.
func NewJoinNodeListCursor(d *doc.Document, a axis.Axis, list []int32, src NodeSource, opts *Options) (JoinCursor, error) {
	return newCursor(d, a, list, true, src, opts)
}

func newCursor(d *doc.Document, a axis.Axis, list []int32, useList bool, src NodeSource, opts *Options) (JoinCursor, error) {
	o := opts.orDefault()
	k := kernel{
		ctxIn: ctxIn{src: src}, d: d, st: o.Stats, emit: o.Emit, variant: o.Variant,
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

func (s *Stats) addContext(n int64) {
	if s != nil {
		s.ContextSize += n
	}
}

// --- context input ---------------------------------------------------------

// ctxIn is a kernel's read position in its context: the upstream batch
// it holds and how far it has read it.
type ctxIn struct {
	src     NodeSource
	ctx     []int32 // the upstream batch being read
	ci      int32   // next unread index of ctx
	seen    int32   // context nodes read since the last Stats flush
	srcDone bool    // the source is retired: never called again
}

// fill replaces the (fully read) batch with the next one; false means
// the context is exhausted.
func (c *ctxIn) fill() (bool, error) {
	if c.srcDone {
		return false, nil
	}
	b, err := c.src()
	if err != nil || b == nil {
		c.srcDone, c.ctx, c.ci = true, nil, 0
		return false, err
	}
	c.ctx, c.ci = b, 0
	return true, nil
}

// descStairs is descendant pruning's state: the running post-rank
// maximum, and the survivor after the current partition's owner, whose
// pre rank ends the partition.
type descStairs struct {
	prevPost         int32
	next             int32
	hasNext, started bool
}

// nextDesc returns the next context node surviving descendant pruning:
// the first one whose post rank exceeds every earlier one's.
func (c *ctxIn) nextDesc(post []int32, s *descStairs) (int32, bool, error) {
	for {
		for i, v := range c.ctx[c.ci:] {
			if post[v] > s.prevPost {
				s.prevPost = post[v]
				c.seen += int32(i + 1)
				c.ci += int32(i + 1)
				return v, true, nil
			}
		}
		c.seen += int32(len(c.ctx)) - c.ci
		if ok, err := c.fill(); !ok {
			return 0, false, err
		}
	}
}

// nextOwner returns the next staircase node and leaves its successor,
// if any, in s.
func (c *ctxIn) nextOwner(post []int32, s *descStairs) (owner int32, ok bool, err error) {
	if !s.started {
		s.started, s.prevPost = true, -1
		if s.next, s.hasNext, err = c.nextDesc(post, s); err != nil {
			return 0, false, err
		}
	}
	if !s.hasNext {
		return 0, false, nil
	}
	owner = s.next
	s.next, s.hasNext, err = c.nextDesc(post, s)
	return owner, err == nil, err
}

// ancLookahead is ancestor pruning's one-node lookahead: a candidate
// survives unless the next context node is its descendant or duplicate.
type ancLookahead struct {
	cand    int32
	hasCand bool
}

// nextAnc returns the next context node surviving ancestor pruning.
func (c *ctxIn) nextAnc(post []int32, la *ancLookahead) (int32, bool, error) {
	for {
		for i, nxt := range c.ctx[c.ci:] {
			if la.hasCand && post[nxt] > post[la.cand] {
				survivor := la.cand
				la.cand = nxt
				c.seen += int32(i + 1)
				c.ci += int32(i + 1)
				return survivor, true, nil
			}
			la.cand, la.hasCand = nxt, true // cand was an ancestor of nxt, or nxt itself
		}
		c.seen += int32(len(c.ctx)) - c.ci
		if ok, err := c.fill(); !ok {
			survivor, had := la.cand, la.hasCand && err == nil
			la.hasCand = false
			return survivor, had, err
		}
	}
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
		for _, v := range c.ctx {
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
		more, err := c.fill()
		if !more {
			return last, ok && err == nil, err
		}
		last, ok = c.ctx[len(c.ctx)-1], true
		c.seen += int32(len(c.ctx))
	}
}

// kernel is the state every cursor shares: the context input, the
// document and the emit test (Next binds its columns to locals), and
// the open partition's boundary.
type kernel struct {
	ctxIn
	d       *doc.Document
	st      *Stats
	emit    Emit
	bound   int32 // boundary post rank of the open partition
	variant Variant
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

// descCursor streams DescendantJoin: partitions delimited by pruned
// context survivors, each scanned copy-phase-then-compare (Algorithm 4)
// and suspended whenever the window is used up.
type descCursor struct {
	kernel
	pos, to int32 // scan position and partition end (inclusive)
	est     int32 // copy-phase end (SkipEstimate)
	stairs  descStairs
}

func (c *descCursor) Next(dst []int32, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	dst = dst[:cap(dst)]
	e, post := c.emit.cols(c.d), c.d.PostSlice()
	mask, id, kind, name := e.mask, e.id, e.kind, e.name
	k, pruned, w := 0, 0, int32(len(dst))
	var copied, compared, skipped int64
	var err error
	for w > 0 {
		if !c.inPart {
			var owner int32
			var ok bool
			if owner, ok, err = c.nextOwner(post, &c.stairs); !ok {
				c.done = true
				break
			}
			c.pos, c.to, c.bound = owner+1, int32(len(post))-1, post[owner]
			if c.stairs.hasNext {
				c.to = c.stairs.next - 1
			}
			c.est = owner // no copy phase
			if c.variant == SkipEstimate {
				c.est = min(c.bound, c.to) // pres <= post(owner): Equation (1)
			}
			c.inPart = true
			pruned++
			w--
		}
		pos, to, bound := c.pos, c.to, c.bound
		if seek > pos {
			j := min(seek, to+1)
			skipped += int64(j - pos)
			pos = j
		}
		// Copy phase: guaranteed descendants, no post comparison.
		if end := min(c.est, pos+w-1); pos <= end {
			k = e.emitRange(dst, k, pos, end)
			copied += int64(end - pos + 1)
			w -= end - pos + 1
			pos = end + 1
		}
		// Scan phase: compare post ranks against the boundary; Skip and
		// SkipEstimate end the partition at the first non-descendant.
		if pos > c.est {
			p, end := pos, min(to, pos+w-1)
			for ; p <= end; p++ {
				if post[p] >= bound {
					if c.variant != NoSkip {
						break
					}
				} else if mask>>kind[p]&1 != 0 && (name == nil || name[p] == id) {
					dst[k] = p
					k++
				}
			}
			n := p - pos
			if p <= end { // the breaking node was compared too; the rest is an empty region
				n++
				skipped += int64(to - p)
				p = to + 1
			}
			compared += int64(n)
			w -= n
			pos = p
		}
		c.pos = pos
		c.inPart = pos <= to
	}
	return c.finish(dst, k, pruned, copied, compared, skipped, err)
}

// --- ancestor, full document ----------------------------------------------

// ancCursor streams AncestorJoin: partitions end at each surviving
// context node's pre rank; non-ancestor subtrees are jumped via
// Equation (1) made exact by the level column.
type ancCursor struct {
	kernel
	pos, to int32
	from    int32 // next partition start
	la      ancLookahead
}

func (c *ancCursor) Next(dst []int32, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	dst = dst[:cap(dst)]
	e, post, level := c.emit.cols(c.d), c.d.PostSlice(), c.d.LevelSlice()
	mask, id, kind, name := e.mask, e.id, e.kind, e.name
	noSkip := c.variant == NoSkip
	k, pruned, w := 0, 0, int32(len(dst))
	var compared, skipped int64
	var err error
	for w > 0 {
		if !c.inPart {
			var owner int32
			var ok bool
			if owner, ok, err = c.nextAnc(post, &c.la); !ok {
				c.done = true
				break
			}
			c.pos, c.to, c.bound = c.from, owner-1, post[owner]
			c.from = owner + 1
			c.inPart = true
			pruned++
			w--
		}
		pos, to, bound := c.pos, c.to, c.bound
		if seek > pos {
			j := min(seek, to+1)
			skipped += int64(j - pos)
			pos = j
		}
		n := int32(0)
		for ; pos <= to && n < w; n++ {
			if post[pos] > bound {
				if mask>>kind[pos]&1 != 0 && (name == nil || name[pos] == id) {
					dst[k] = pos
					k++
				}
				pos++
			} else if noSkip {
				pos++
			} else {
				// pos and its whole subtree precede the boundary node: jump.
				next := pos + 1 + max(post[pos]-pos+level[pos], 0)
				skipped += int64(min(next, to+1) - pos - 1)
				pos = next
			}
		}
		compared += int64(n)
		w -= n
		c.pos = pos
		c.inPart = pos <= to
	}
	return c.finish(dst, k, pruned, 0, compared, skipped, err)
}

// --- following / preceding, full document ---------------------------------

// folCursor streams FollowingJoin: the context reduces to its
// minimum-post node, found inside the first context node's subtree,
// then the cursor copies the document suffix beyond that node's subtree
// window by window.
type folCursor struct {
	kernel
	pos int32
}

func (c *folCursor) Next(dst []int32, seek int32) ([]int32, error) {
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
	end := min(n, c.pos+int32(len(dst)))
	if c.pos < end {
		e := c.emit.cols(c.d)
		k = e.emitRange(dst, 0, c.pos, end-1)
	}
	copied := int64(end - c.pos)
	c.pos, c.done = end, end >= n
	return c.finish(dst, k, pruned, copied, 0, skipped, nil)
}

// precCursor streams PrecedingJoin: the context reduces to its
// maximum-pre node (a full drain: it is the last one), then the cursor
// scans [0, c) against the boundary post rank window by window.
type precCursor struct {
	kernel
	pos, end int32
}

func (c *precCursor) Next(dst []int32, seek int32) ([]int32, error) {
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
	e, post, bound := c.emit.cols(c.d), c.d.PostSlice(), c.bound
	mask, id, kind, name := e.mask, e.id, e.kind, e.name
	k := 0
	var skipped int64
	if seek > c.pos {
		j := min(seek, c.end)
		skipped = int64(j - c.pos)
		c.pos = j
	}
	end := min(c.end, c.pos+int32(len(dst)))
	for p := c.pos; p < end; p++ {
		if post[p] < bound && mask>>kind[p]&1 != 0 && (name == nil || name[p] == id) {
			dst[k] = p
			k++
		}
	}
	compared := int64(end - c.pos)
	c.pos, c.done = end, end >= c.end
	return c.finish(dst, k, pruned, 0, compared, skipped, nil)
}
