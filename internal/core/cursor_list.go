// Resumable staircase joins over pre-sorted node lists (index
// fragments) — the streaming counterparts of nodelist.go, under the
// rules of cursor.go with list entries as the window's positions.
// The list position only ever moves forward, so partition boundaries,
// copy-phase guarantees, subtree jumps and seek targets are all found
// by galloping from it (searchFrom): early-terminating consumers touch
// only the fragment entries they actually consume, and a full sweep
// costs O(|context| + |list|) however the partitions fall.

package core

// seekList moves the list position li forward to the first entry at or
// beyond the seek hint within list[:end] and returns it with the number
// of entries jumped.
func seekList(list []int32, li, end int, seek int32) (int, int64) {
	if seek <= 0 || li >= end || list[li] >= seek {
		return li, 0
	}
	j := searchFrom(list[:end], li, seek)
	return j, int64(j - li)
}

// --- descendant ∩ list -----------------------------------------------------

type descListCursor struct {
	kernel
	list    []int32
	li, end int // scan index and partition end (exclusive)
	guar    int // copy-phase end (exclusive; SkipEstimate)
	stairs  descStairs
}

func (c *descListCursor) Next(dst []int32, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	dst = dst[:cap(dst)]
	e, list, post := c.emit.cols(c.d), c.list, c.d.PostSlice()
	mask, id, kind, name := e.mask, e.id, e.kind, e.name
	k, pruned, w := 0, 0, len(dst)
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
			// Partition of owner within the list: entries with pre > owner,
			// up to the next surviving context node.
			c.li = searchFrom(list, c.li, owner+1)
			c.end = len(list)
			if c.stairs.hasNext {
				c.end = searchFrom(list, c.li, c.stairs.next)
			}
			c.bound = post[owner]
			c.guar = c.li
			if c.variant == SkipEstimate {
				// Copy phase: list entries with pre <= post(owner) are
				// guaranteed descendants (Equation (1) lower bound).
				c.guar = searchFrom(list[:c.end], c.li, c.bound+1)
			}
			c.inPart = true
			pruned++
			w--
		}
		li, end, bound := c.li, c.end, c.bound
		var jumped int64
		li, jumped = seekList(list, li, end, seek)
		skipped += jumped
		if stop := min(c.guar, li+w); li < stop {
			for _, v := range list[li:stop] {
				if mask>>kind[v]&1 != 0 && (name == nil || name[v] == id) {
					dst[k] = v
					k++
				}
			}
			copied += int64(stop - li)
			w -= stop - li
			li = stop
		}
		if li >= c.guar {
			j, stop := li, min(end, li+w)
			for ; j < stop; j++ {
				v := list[j]
				if post[v] >= bound {
					if c.variant != NoSkip {
						break
					}
				} else if mask>>kind[v]&1 != 0 && (name == nil || name[v] == id) {
					dst[k] = v
					k++
				}
			}
			n := j - li
			if j < stop { // the breaking entry was compared too
				n++
				skipped += int64(end - j - 1)
				j = end
			}
			compared += int64(n)
			w -= n
			li = j
		}
		c.li = li
		c.inPart = li < end
	}
	return c.finish(dst, k, pruned, copied, compared, skipped, err)
}

// --- ancestor ∩ list -------------------------------------------------------

type ancListCursor struct {
	kernel
	list    []int32
	li, end int
	la      ancLookahead
}

func (c *ancListCursor) Next(dst []int32, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	dst = dst[:cap(dst)]
	e, list, post := c.emit.cols(c.d), c.list, c.d.PostSlice()
	mask, id, kind, name := e.mask, e.id, e.kind, e.name
	noSkip := c.variant == NoSkip
	k, pruned, w := 0, 0, len(dst)
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
			c.end = searchFrom(list, c.li, owner) // entries with pre < owner
			c.bound = post[owner]
			c.inPart = true
			pruned++
			w--
		}
		li, end, bound := c.li, c.end, c.bound
		var jumped int64
		li, jumped = seekList(list, li, end, seek)
		skipped += jumped
		n := 0
		for ; li < end && n < w; n++ {
			v := list[li]
			if post[v] > bound {
				if mask>>kind[v]&1 != 0 && (name == nil || name[v] == id) {
					dst[k] = v
					k++
				}
				li++
			} else if noSkip {
				li++
			} else {
				// v's whole subtree precedes the boundary node: gallop
				// past it within the list.
				next := searchFrom(list[:end], li+1, v+1+c.d.SubtreeSize(v))
				skipped += int64(next - li - 1)
				li = next
			}
		}
		compared += int64(n)
		w -= n
		c.li = li
		c.inPart = li < end
	}
	return c.finish(dst, k, pruned, 0, compared, skipped, err)
}

// --- following / preceding ∩ list ------------------------------------------

type folListCursor struct {
	kernel
	list []int32
	li   int
}

func (c *folListCursor) Next(dst []int32, seek int32) ([]int32, error) {
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
		c.li = searchList(c.list, best+1+c.d.SubtreeSize(best))
		c.inPart, pruned = true, 1
	}
	dst = dst[:cap(dst)]
	e, list := c.emit.cols(c.d), c.list
	li, skipped := seekList(list, c.li, len(list), seek)
	k, stop := 0, min(len(list), li+len(dst))
	for _, v := range list[li:stop] {
		if e.pass(v) {
			dst[k] = v
			k++
		}
	}
	c.li, c.done = stop, stop >= len(list)
	return c.finish(dst, k, pruned, int64(stop-li), 0, skipped, nil)
}

type precListCursor struct {
	kernel
	list    []int32
	li, end int
}

func (c *precListCursor) Next(dst []int32, seek int32) ([]int32, error) {
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
		c.end, c.bound = searchList(c.list, last), c.d.Post(last)
		c.inPart, pruned = true, 1
	}
	dst = dst[:cap(dst)]
	e, post, bound := c.emit.cols(c.d), c.d.PostSlice(), c.bound
	li, skipped := seekList(c.list, c.li, c.end, seek)
	k, stop := 0, min(c.end, li+len(dst))
	for _, v := range c.list[li:stop] {
		if post[v] < bound && e.pass(v) {
			dst[k] = v
			k++
		}
	}
	c.li, c.done = stop, stop >= c.end
	return c.finish(dst, k, pruned, 0, int64(stop-li), skipped, nil)
}
