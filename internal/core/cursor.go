// Resumable staircase join cursors — the streaming face of the batch
// kernels in staircase.go / ancestor.go / nodelist.go.
//
// A JoinCursor produces the same node sequence as the corresponding
// batch join, but in bounded batches on demand: each Next call fills a
// caller-provided buffer with the next run of result nodes (strictly
// increasing pre ranks, continuing where the previous batch ended) and
// returns, leaving the partition scan suspended mid-flight. Consumers
// that stop early — LIMIT, existence probes, positional predicates —
// therefore never pay for document regions beyond what they consumed:
// the skipping argument of §3.3 extends from "skip what cannot
// qualify" to "never touch what nobody asked for".
//
// Context nodes are pulled lazily through a NodeSource, so a chain of
// cursors evaluates a whole path without materialising intermediate
// node sequences. Pruning (§3.1) folds into the pull loop: descendant
// pruning is a running post-rank maximum, ancestor pruning a
// one-node lookahead — exactly the pre-pass rules, applied on the fly.
//
// Every cursor additionally accepts a seekPre hint on Next: the caller
// promises to ignore result nodes with pre < seekPre, so the cursor
// may jump its scan position (or binary-search its node list) forward
// instead of producing them. Skipped document nodes are accounted in
// Stats.Skipped like the kernels' own empty-region skips.
package core

import (
	"staircase/internal/axis"
	"staircase/internal/doc"
)

// NodeSource yields the next context node in document order (strictly
// increasing pre ranks); ok is false once the context is exhausted.
// Errors propagate out of the cursor's Next.
type NodeSource func() (pre int32, ok bool, err error)

// SliceSource adapts a materialised context sequence to a NodeSource.
func SliceSource(nodes []int32) NodeSource {
	i := 0
	return func() (int32, bool, error) {
		if i >= len(nodes) {
			return 0, false, nil
		}
		v := nodes[i]
		i++
		return v, true, nil
	}
}

// JoinCursor is a resumable staircase join. Next appends result nodes
// to dst (len(dst) == 0, capacity = the batch size) until the buffer
// is full or the join is exhausted, and returns the filled buffer; a
// nil return means exhaustion. Result nodes with pre < seekPre may be
// omitted (the caller's promise to ignore them); passing 0 disables
// seeking. Cursors are single-use and not safe for concurrent use.
type JoinCursor interface {
	Next(dst []int32, seekPre int32) ([]int32, error)
}

// NewJoinCursor returns a resumable staircase join over the full
// document for one of the four partitioning axes. The context arrives
// through src in document order; opts selects variant and stats
// exactly like Join (ScanLimit/ScanStart are not supported — cursors
// are serial by construction).
func NewJoinCursor(d *doc.Document, a axis.Axis, src NodeSource, opts *Options) (JoinCursor, error) {
	o := opts.orDefault()
	e := o.Emit.cols(d)
	switch a {
	case axis.Descendant:
		return &descCursor{
			d: d, post: d.PostSlice(), emitCols: e,
			n: int32(d.Size()), src: src, o: o, prevPost: -1,
		}, nil
	case axis.Ancestor:
		return &ancCursor{
			d: d, post: d.PostSlice(), level: d.LevelSlice(), emitCols: e,
			src: src, o: o,
		}, nil
	case axis.Following:
		return &folCursor{d: d, emitCols: e, n: int32(d.Size()), src: src, o: o}, nil
	case axis.Preceding:
		return &precCursor{d: d, post: d.PostSlice(), emitCols: e, src: src, o: o}, nil
	default:
		return nil, errNonPartitioning(a)
	}
}

// NewJoinNodeListCursor returns a resumable staircase join over a
// pre-sorted node list (an index fragment) instead of the whole
// document — the streaming counterpart of JoinNodeList. Partition
// boundaries, copy-phase guarantees and seek targets are located by
// binary search on the list, so a downstream consumer that stops
// early or seeks forward never rescans fragment prefixes.
func NewJoinNodeListCursor(d *doc.Document, a axis.Axis, list []int32, src NodeSource, opts *Options) (JoinCursor, error) {
	o := opts.orDefault()
	e := o.Emit.cols(d)
	switch a {
	case axis.Descendant:
		return &descListCursor{
			d: d, post: d.PostSlice(), emitCols: e, list: list,
			src: src, o: o, prevPost: -1,
		}, nil
	case axis.Ancestor:
		return &ancListCursor{
			d: d, post: d.PostSlice(), emitCols: e, list: list,
			src: src, o: o,
		}, nil
	case axis.Following:
		return &folListCursor{d: d, emitCols: e, list: list, src: src, o: o}, nil
	case axis.Preceding:
		return &precListCursor{d: d, post: d.PostSlice(), emitCols: e, list: list, src: src, o: o}, nil
	default:
		return nil, errNonPartitioning(a)
	}
}

// --- shared stat helpers ---------------------------------------------------

func (s *Stats) addContext(n int64) {
	if s != nil {
		s.ContextSize += n
	}
}

func (s *Stats) addPruned(n int64) {
	if s != nil {
		s.PrunedSize += n
	}
}

func (s *Stats) addSkipped(n int64) {
	if s != nil && n > 0 {
		s.Skipped += n
	}
}

func (s *Stats) addCompared(n int64) {
	if s != nil && n > 0 {
		s.Compared += n
		s.Scanned += n
	}
}

func (s *Stats) addCopied(n int64) {
	if s != nil && n > 0 {
		s.Copied += n
		s.Scanned += n
	}
}

// --- descendant, full document --------------------------------------------

// descCursor streams DescendantJoin: partitions delimited by pruned
// context survivors, each scanned copy-phase-then-compare (Algorithm 4)
// and suspended whenever the batch buffer fills.
type descCursor struct {
	emitCols
	d    *doc.Document
	post []int32
	n    int32
	src  NodeSource
	o    *Options

	inPart     bool
	pos, to    int32 // current partition scan position and end (inclusive)
	bound, est int32 // boundary post rank; copy-phase end (SkipEstimate)
	prevPost   int32 // pruning state: post rank of the last survivor
	pending    int32 // next survivor (partition lookahead)
	hasPend    bool
	srcDone    bool
	done       bool
}

// nextSurvivor pulls context nodes until one survives descendant
// pruning (strictly increasing post ranks).
func (c *descCursor) nextSurvivor() (int32, bool, error) {
	for {
		v, ok, err := c.src()
		if err != nil || !ok {
			return 0, false, err
		}
		c.o.Stats.addContext(1)
		if c.post[v] > c.prevPost {
			c.prevPost = c.post[v]
			return v, true, nil
		}
	}
}

// startPartition establishes the next partition; false means the
// context is exhausted.
func (c *descCursor) startPartition() (bool, error) {
	var owner int32
	if c.hasPend {
		owner, c.hasPend = c.pending, false
	} else if c.srcDone {
		return false, nil
	} else {
		v, ok, err := c.nextSurvivor()
		if err != nil {
			return false, err
		}
		if !ok {
			c.srcDone = true
			return false, nil
		}
		owner = v
	}
	if !c.srcDone {
		v, ok, err := c.nextSurvivor()
		if err != nil {
			return false, err
		}
		if ok {
			c.pending, c.hasPend = v, true
		} else {
			c.srcDone = true
		}
	}
	c.pos = owner + 1
	c.to = c.n - 1
	if c.hasPend {
		c.to = c.pending - 1
	}
	c.bound = c.post[owner]
	c.est = c.bound // copy phase covers pres <= post(owner) (Equation 1)
	if c.to < c.est {
		c.est = c.to
	}
	c.inPart = true
	c.o.Stats.addPruned(1)
	return true, nil
}

func (c *descCursor) Next(dst []int32, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	st := c.o.Stats
	for {
		if !c.inPart {
			ok, err := c.startPartition()
			if err != nil {
				return nil, err
			}
			if !ok {
				c.done = true
				if len(dst) == 0 {
					st.addResult(0)
					return nil, nil
				}
				st.addResult(int64(len(dst)))
				return dst, nil
			}
		}
		if seek > c.pos {
			j := seek
			if j > c.to+1 {
				j = c.to + 1
			}
			st.addSkipped(int64(j - c.pos))
			c.pos = j
		}
		// Copy phase (SkipEstimate): pres in (owner, post(owner)] are
		// guaranteed descendants, no post comparison needed.
		if c.o.Variant == SkipEstimate {
			for c.pos <= c.est && len(dst) < cap(dst) {
				if c.pass(c.pos) {
					dst = append(dst, c.pos)
				}
				st.addCopied(1)
				c.pos++
			}
			if c.pos <= c.est {
				st.addResult(int64(len(dst)))
				return dst, nil // buffer full mid copy phase
			}
		}
		// Scan phase: compare post ranks against the boundary; Skip and
		// SkipEstimate end the partition at the first non-descendant.
		for c.pos <= c.to && len(dst) < cap(dst) {
			st.addCompared(1)
			if c.post[c.pos] < c.bound {
				if c.pass(c.pos) {
					dst = append(dst, c.pos)
				}
				c.pos++
				continue
			}
			if c.o.Variant == NoSkip {
				c.pos++
				continue
			}
			st.addSkipped(int64(c.to - c.pos))
			c.pos = c.to + 1
		}
		if c.pos > c.to {
			c.inPart = false
			continue
		}
		st.addResult(int64(len(dst)))
		return dst, nil // buffer full mid scan phase
	}
}

// --- ancestor, full document ----------------------------------------------

// ancCursor streams AncestorJoin: partitions end at each surviving
// context node's pre rank; non-ancestor subtrees are jumped via
// Equation (1) made exact by the level column.
type ancCursor struct {
	emitCols
	d     *doc.Document
	post  []int32
	level []int32
	src   NodeSource
	o     *Options

	inPart  bool
	pos, to int32
	bound   int32
	from    int32 // next partition start
	cand    int32 // pruning lookahead: current candidate
	hasCand bool
	srcDone bool
	done    bool
}

// nextSurvivor applies ancestor pruning with a one-node lookahead: a
// candidate is dropped when the next context node is its descendant
// (or a duplicate).
func (c *ancCursor) nextSurvivor() (int32, bool, error) {
	for {
		if !c.hasCand {
			if c.srcDone {
				return 0, false, nil
			}
			v, ok, err := c.src()
			if err != nil {
				return 0, false, err
			}
			if !ok {
				c.srcDone = true
				return 0, false, nil
			}
			c.o.Stats.addContext(1)
			c.cand, c.hasCand = v, true
		}
		if c.srcDone {
			c.hasCand = false
			return c.cand, true, nil
		}
		nxt, ok, err := c.src()
		if err != nil {
			return 0, false, err
		}
		if !ok {
			c.srcDone = true
			c.hasCand = false
			return c.cand, true, nil
		}
		c.o.Stats.addContext(1)
		if nxt == c.cand || c.post[nxt] < c.post[c.cand] {
			// cand is an ancestor of nxt (or a duplicate): pruned.
			c.cand = nxt
			continue
		}
		survivor := c.cand
		c.cand = nxt
		return survivor, true, nil
	}
}

func (c *ancCursor) Next(dst []int32, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	st := c.o.Stats
	for {
		if !c.inPart {
			owner, ok, err := c.nextSurvivor()
			if err != nil {
				return nil, err
			}
			if !ok {
				c.done = true
				if len(dst) == 0 {
					st.addResult(0)
					return nil, nil
				}
				st.addResult(int64(len(dst)))
				return dst, nil
			}
			c.pos = c.from
			c.to = owner - 1
			c.bound = c.post[owner]
			c.from = owner + 1
			c.inPart = true
			st.addPruned(1)
		}
		if seek > c.pos {
			j := seek
			if j > c.to+1 {
				j = c.to + 1
			}
			st.addSkipped(int64(j - c.pos))
			c.pos = j
		}
		for c.pos <= c.to && len(dst) < cap(dst) {
			st.addCompared(1)
			if c.post[c.pos] > c.bound {
				if c.pass(c.pos) {
					dst = append(dst, c.pos)
				}
				c.pos++
				continue
			}
			if c.o.Variant == NoSkip {
				c.pos++
				continue
			}
			// pos and its whole subtree precede the boundary node: jump.
			next := c.pos + 1 + (c.post[c.pos] - c.pos + c.level[c.pos])
			if next <= c.pos {
				next = c.pos + 1
			}
			jump := next - c.pos - 1
			if c.to+1 < next {
				jump = c.to - c.pos
			}
			st.addSkipped(int64(jump))
			c.pos = next
		}
		if c.pos > c.to {
			c.inPart = false
			continue
		}
		st.addResult(int64(len(dst)))
		return dst, nil
	}
}

// --- following / preceding, full document ---------------------------------

// folCursor streams FollowingJoin: the context reduces to its
// minimum-post node (a full context drain — following cannot emit
// before the last context node is seen), then the cursor copies the
// document suffix beyond that node's subtree batch by batch.
type folCursor struct {
	emitCols
	d   *doc.Document
	n   int32
	src NodeSource
	o   *Options

	pos    int32
	inited bool
	done   bool
}

func (c *folCursor) init() error {
	st := c.o.Stats
	post := c.d.PostSlice()
	best := int32(-1)
	for {
		v, ok, err := c.src()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		st.addContext(1)
		if best < 0 || post[v] < post[best] {
			best = v
		}
	}
	c.inited = true
	if best < 0 {
		c.done = true
		return nil
	}
	st.addPruned(1)
	c.pos = best + 1 + c.d.SubtreeSize(best)
	return nil
}

func (c *folCursor) Next(dst []int32, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	if !c.inited {
		if err := c.init(); err != nil {
			return nil, err
		}
		if c.done {
			return nil, nil
		}
	}
	st := c.o.Stats
	if seek > c.pos {
		j := seek
		if j > c.n {
			j = c.n
		}
		st.addSkipped(int64(j - c.pos))
		c.pos = j
	}
	for c.pos < c.n && len(dst) < cap(dst) {
		if c.pass(c.pos) {
			dst = append(dst, c.pos)
		}
		st.addCopied(1)
		c.pos++
	}
	if c.pos >= c.n && len(dst) < cap(dst) {
		c.done = true
	}
	if len(dst) == 0 {
		c.done = true
		st.addResult(0)
		return nil, nil
	}
	st.addResult(int64(len(dst)))
	return dst, nil
}

// precCursor streams PrecedingJoin: the context reduces to its
// maximum-pre node (again a full drain), then the cursor scans [0, c)
// against the boundary post rank batch by batch.
type precCursor struct {
	emitCols
	d    *doc.Document
	post []int32
	src  NodeSource
	o    *Options

	pos, end, bound int32
	inited          bool
	done            bool
}

func (c *precCursor) init() error {
	st := c.o.Stats
	last := int32(-1)
	for {
		v, ok, err := c.src()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		st.addContext(1)
		last = v // document order: the last pulled node has maximum pre
	}
	c.inited = true
	if last < 0 {
		c.done = true
		return nil
	}
	st.addPruned(1)
	c.end = last
	c.bound = c.post[last]
	return nil
}

func (c *precCursor) Next(dst []int32, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	if !c.inited {
		if err := c.init(); err != nil {
			return nil, err
		}
		if c.done {
			return nil, nil
		}
	}
	st := c.o.Stats
	if seek > c.pos {
		j := seek
		if j > c.end {
			j = c.end
		}
		st.addSkipped(int64(j - c.pos))
		c.pos = j
	}
	for c.pos < c.end && len(dst) < cap(dst) {
		st.addCompared(1)
		if c.post[c.pos] < c.bound {
			if c.pass(c.pos) {
				dst = append(dst, c.pos)
			}
		}
		c.pos++
	}
	if c.pos >= c.end && len(dst) < cap(dst) {
		c.done = true
	}
	if len(dst) == 0 {
		c.done = true
		st.addResult(0)
		return nil, nil
	}
	st.addResult(int64(len(dst)))
	return dst, nil
}
