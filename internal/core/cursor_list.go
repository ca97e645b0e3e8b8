// Resumable staircase joins over pre-sorted node lists (index
// fragments) — the streaming counterparts of nodelist.go. Partition
// boundaries, copy-phase guarantees, subtree jumps and seek targets
// are all located by binary search on the list, so early-terminating
// consumers touch only the fragment entries they actually consume.

package core

import (
	"staircase/internal/doc"
)

// --- descendant ∩ list -----------------------------------------------------

type descListCursor struct {
	emitCols
	d    *doc.Document
	post []int32
	list []int32
	src  NodeSource
	o    *Options

	inPart   bool
	li, end  int // current scan index and partition end (exclusive)
	guar     int // copy-phase end (exclusive; SkipEstimate)
	bound    int32
	prevPost int32
	pending  int32
	hasPend  bool
	srcDone  bool
	done     bool
}

func (c *descListCursor) nextSurvivor() (int32, bool, error) {
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

func (c *descListCursor) startPartition() (bool, error) {
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
	// Partition of owner within the list: entries with pre > owner, up
	// to the next surviving context node.
	if c.li < len(c.list) && c.list[c.li] <= owner {
		c.li = searchList(c.list[c.li:], owner+1) + c.li
	}
	c.end = len(c.list)
	if c.hasPend {
		c.end = searchList(c.list, c.pending)
	}
	c.bound = c.post[owner]
	c.guar = c.li
	if c.o.Variant == SkipEstimate {
		// Copy phase: list entries with pre <= post(owner) are
		// guaranteed descendants (Equation (1) lower bound).
		c.guar = searchList(c.list[c.li:c.end], c.bound+1) + c.li
	}
	c.inPart = true
	c.o.Stats.addPruned(1)
	return true, nil
}

func (c *descListCursor) Next(dst []int32, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	if len(c.list) == 0 {
		c.done = true
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
		if seek > 0 && c.li < c.end && c.list[c.li] < seek {
			j := searchList(c.list[c.li:c.end], seek) + c.li
			st.addSkipped(int64(j - c.li))
			c.li = j
		}
		for c.li < c.guar && len(dst) < cap(dst) {
			v := c.list[c.li]
			if c.pass(v) {
				dst = append(dst, v)
			}
			st.addCopied(1)
			c.li++
		}
		if c.li < c.guar {
			st.addResult(int64(len(dst)))
			return dst, nil
		}
		for c.li < c.end && len(dst) < cap(dst) {
			v := c.list[c.li]
			st.addCompared(1)
			if c.post[v] < c.bound {
				if c.pass(v) {
					dst = append(dst, v)
				}
				c.li++
				continue
			}
			if c.o.Variant == NoSkip {
				c.li++
				continue
			}
			st.addSkipped(int64(c.end - c.li - 1))
			c.li = c.end
		}
		if c.li >= c.end {
			c.inPart = false
			continue
		}
		st.addResult(int64(len(dst)))
		return dst, nil
	}
}

// --- ancestor ∩ list -------------------------------------------------------

type ancListCursor struct {
	emitCols
	d    *doc.Document
	post []int32
	list []int32
	src  NodeSource
	o    *Options

	inPart  bool
	li, end int
	bound   int32
	cand    int32
	hasCand bool
	srcDone bool
	done    bool
}

func (c *ancListCursor) nextSurvivor() (int32, bool, error) {
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
			c.cand = nxt
			continue
		}
		survivor := c.cand
		c.cand = nxt
		return survivor, true, nil
	}
}

func (c *ancListCursor) Next(dst []int32, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	if len(c.list) == 0 {
		c.done = true
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
			c.end = searchList(c.list, owner) // entries with pre < owner
			c.bound = c.post[owner]
			c.inPart = true
			st.addPruned(1)
		}
		if seek > 0 && c.li < c.end && c.list[c.li] < seek {
			j := searchList(c.list[c.li:c.end], seek) + c.li
			st.addSkipped(int64(j - c.li))
			c.li = j
		}
		for c.li < c.end && len(dst) < cap(dst) {
			v := c.list[c.li]
			st.addCompared(1)
			if c.post[v] > c.bound {
				if c.pass(v) {
					dst = append(dst, v)
				}
				c.li++
				continue
			}
			if c.o.Variant == NoSkip {
				c.li++
				continue
			}
			// v's whole subtree precedes the boundary node: jump past it
			// within the list by binary search.
			next := searchList(c.list[c.li+1:c.end], v+1+c.d.SubtreeSize(v)) + c.li + 1
			st.addSkipped(int64(next - c.li - 1))
			c.li = next
		}
		if c.li >= c.end {
			c.inPart = false
			continue
		}
		st.addResult(int64(len(dst)))
		return dst, nil
	}
}

// --- following / preceding ∩ list ------------------------------------------

type folListCursor struct {
	emitCols
	d    *doc.Document
	list []int32
	src  NodeSource
	o    *Options

	li     int
	inited bool
	done   bool
}

func (c *folListCursor) Next(dst []int32, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	st := c.o.Stats
	if !c.inited {
		post := c.d.PostSlice()
		best := int32(-1)
		for {
			v, ok, err := c.src()
			if err != nil {
				return nil, err
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
		if best < 0 || len(c.list) == 0 {
			c.done = true
			return nil, nil
		}
		st.addPruned(1)
		c.li = searchList(c.list, best+1+c.d.SubtreeSize(best))
	}
	if seek > 0 && c.li < len(c.list) && c.list[c.li] < seek {
		j := searchList(c.list[c.li:], seek) + c.li
		st.addSkipped(int64(j - c.li))
		c.li = j
	}
	for c.li < len(c.list) && len(dst) < cap(dst) {
		v := c.list[c.li]
		if c.pass(v) {
			dst = append(dst, v)
		}
		st.addCopied(1)
		c.li++
	}
	if c.li >= len(c.list) && len(dst) < cap(dst) {
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

type precListCursor struct {
	emitCols
	d    *doc.Document
	post []int32
	list []int32
	src  NodeSource
	o    *Options

	li, end int
	bound   int32
	inited  bool
	done    bool
}

func (c *precListCursor) Next(dst []int32, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	st := c.o.Stats
	if !c.inited {
		last := int32(-1)
		for {
			v, ok, err := c.src()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			st.addContext(1)
			last = v
		}
		c.inited = true
		if last < 0 || len(c.list) == 0 {
			c.done = true
			return nil, nil
		}
		st.addPruned(1)
		c.end = searchList(c.list, last)
		c.bound = c.post[last]
	}
	if seek > 0 && c.li < c.end && c.list[c.li] < seek {
		j := searchList(c.list[c.li:c.end], seek) + c.li
		st.addSkipped(int64(j - c.li))
		c.li = j
	}
	for c.li < c.end && len(dst) < cap(dst) {
		v := c.list[c.li]
		st.addCompared(1)
		if c.post[v] < c.bound {
			if c.pass(v) {
				dst = append(dst, v)
			}
		}
		c.li++
	}
	if c.li >= c.end && len(dst) < cap(dst) {
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
