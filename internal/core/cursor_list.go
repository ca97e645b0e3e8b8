// Staircase join cursors over pre-sorted node lists (index fragments):
// the one body of each node-list family, which JoinNodeList runs at an
// unbounded window, under the rules of cursor.go with list entries as
// the window's positions. They apply no node test: a list is its test's
// fragment.
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

// keepBelow copies the entries of list whose post rank is below bound
// to out — the preceding scan — and returns how many it copied. out must
// have room for the whole list. It stays out of line so the scan loop
// has the registers to itself: inlined into next it reloads a spilled
// counter on every entry.
//
//go:noinline
func keepBelow(out, post, list []int32, bound int32) int {
	out, k := out[:len(list)], 0
	for _, v := range list {
		if post[v] < bound {
			out[k] = v
			k++
		}
	}
	return k
}

// --- descendant ∩ list -----------------------------------------------------

type descListCursor struct {
	kernel
	list    []int32
	li, end int // scan index and partition end (exclusive)
	guar    int // copy-phase end (exclusive; SkipEstimate)
}

func (c *descListCursor) Next(dst []int32, seek int32) ([]int32, error) {
	return c.next(dst, cap(dst), seek)
}

func (c *descListCursor) next(dst []int32, window int, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	dst = dst[:cap(dst)]
	list, post := c.list, c.d.PostSlice()
	estimate, skip := c.variant == SkipEstimate, c.variant != NoSkip
	k, pruned, w := 0, 0, window
	li, end, guar, bound := c.li, c.end, c.guar, c.bound
	var copied, skipped int64
	var err error
	for {
		// The partition list[li:end] is open, or empty.
		if seek > 0 && li < end {
			var jumped int64
			li, jumped = seekList(list, li, end, seek)
			skipped += jumped
		}
		if n := min(guar-li, w); n > 0 {
			k += copy(dst[k:], list[li:li+n])
			copied += int64(n)
			w -= n
			li += n
		}
		if li >= guar {
			j, stop := li, li+min(end-li, w)
			for ; j < stop; j++ {
				v := list[j]
				if post[v] >= bound {
					if skip {
						break
					}
				} else {
					dst[k] = v
					k++
				}
			}
			w -= j - li
			if j < stop { // the breaking entry was compared too
				w--
				skipped += int64(end - j - 1)
				j = end
			}
			li = j
		}
		if li < end || w == 0 { // the window is used up
			break
		}
		// Open the next partition: list entries with pre > owner, up to
		// the next staircase node.
		var owner, next int32
		if i := c.ri; i+1 < len(c.run) { // nextStair's common case
			owner, next = c.run[i], c.run[i+1]
			c.ri = i + 1
		} else if owner, next, err = c.nextStair(post, w); owner < 0 {
			break
		}
		li = searchFrom(list, li, owner+1)
		end = searchFrom(list, li, next)
		bound, guar = post[owner], li
		if estimate {
			// Copy phase: list entries with pre <= post(owner) are
			// guaranteed descendants (Equation (1) lower bound).
			guar = searchFrom(list[:end], li, bound+1)
		}
		pruned++
		w--
	}
	c.li, c.end, c.guar, c.bound = li, end, guar, bound
	compared := int64(window-w-pruned) - copied // the rest of the window
	return c.finish(dst, k, pruned, copied, compared, skipped, err)
}

// --- ancestor ∩ list -------------------------------------------------------

// ancListCursor scans the list entries before each context node, entry
// by entry: the first entry at or beyond the owner ends the partition,
// so no search locates the end. It reads the raw context and prunes as
// it opens partitions (§3.1): a context node whose post rank is below
// bound is the owner again or lies in the owner's subtree, so the owner
// is covered and its partition merges into the new node's. Every entry
// the owner's bound decided, the new node's decides alike: an entry
// before the owner is its ancestor, and so the new node's, or precedes
// both.
type ancListCursor struct {
	kernel
	list  []int32
	li    int
	owner int32 // the open partition's context node
}

func (c *ancListCursor) Next(dst []int32, seek int32) ([]int32, error) {
	return c.next(dst, cap(dst), seek)
}

func (c *ancListCursor) next(dst []int32, window int, seek int32) ([]int32, error) {
	if c.done {
		return nil, nil
	}
	dst = dst[:cap(dst)]
	d, list, post := c.d, c.list, c.d.PostSlice()
	noSkip := c.variant == NoSkip
	k, pruned, read, w := 0, 0, 0, window
	// bound is one above the owner's post rank (0 before the first): an
	// entry before the owner is its ancestor iff its post rank reaches it.
	li, owner, bound := c.li, c.owner, c.bound
	var skipped int64
	var err error
	for w > 0 {
		if li == len(list) || list[li] >= owner { // the partition is scanned
			if int(c.ci) == len(c.ctx) { // the batch is read: the next one may be empty
				var more bool
				if more, err = c.fill(); !more {
					c.done = true
					break
				}
				continue
			}
			v := c.ctx[c.ci]
			c.ci++
			if post[v] >= bound { // v follows the owner: a new partition
				pruned++
			}
			owner, bound = v, post[v]+1
			read++
			w--
		}
		if seek > 0 {
			var jumped int64
			li, jumped = seekList(list, li, len(list), min(seek, owner))
			skipped += jumped
		}
		for ; w > 0 && li < len(list) && list[li] < owner; w-- {
			v := list[li]
			if post[v] >= bound {
				dst[k] = v
				k++
				li++
			} else if noSkip {
				li++
			} else {
				// v and its descendants precede the boundary node: gallop
				// past v's subtree, which ends before owner.
				next := searchFrom(list, li+1, v+1+d.SubtreeSize(v))
				skipped += int64(next - li - 1)
				li = next
			}
		}
	}
	c.li, c.owner, c.bound = li, owner, bound
	c.seen += int32(read)
	compared := int64(window - w - read) // every position not reading a context node compared an entry
	return c.finish(dst, k, pruned, 0, compared, skipped, err)
}

// --- following / preceding ∩ list ------------------------------------------

// folListCursor copies the list suffix beyond the subtree of the
// minimum-post context node.
type folListCursor struct {
	kernel
	list []int32
	li   int // no entry before it follows the context
}

func (c *folListCursor) Next(dst []int32, seek int32) ([]int32, error) {
	return c.next(dst, cap(dst), seek)
}

func (c *folListCursor) next(dst []int32, window int, seek int32) ([]int32, error) {
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
		c.li = searchFrom(c.list, c.li, best+1+c.d.SubtreeSize(best))
		c.inPart, pruned = true, 1
	}
	dst = dst[:cap(dst)]
	list := c.list
	li, skipped := seekList(list, c.li, len(list), seek)
	k := copy(dst, list[li:li+min(len(list)-li, window)])
	stop := li + k
	c.li, c.done = stop, stop >= len(list)
	return c.finish(dst, k, pruned, int64(k), 0, skipped, nil)
}

// precListCursor scans the list entries before the maximum-pre context
// node and keeps those that are not its ancestors.
type precListCursor struct {
	kernel
	list    []int32
	li, end int
}

func (c *precListCursor) Next(dst []int32, seek int32) ([]int32, error) {
	return c.next(dst, cap(dst), seek)
}

func (c *precListCursor) next(dst []int32, window int, seek int32) ([]int32, error) {
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
	post, bound := c.d.PostSlice(), c.bound
	li, skipped := seekList(c.list, c.li, c.end, seek)
	stop := li + min(c.end-li, window)
	k := keepBelow(dst, post, c.list[li:stop], bound)
	c.li, c.done = stop, stop >= c.end
	return c.finish(dst, k, pruned, 0, int64(stop-li), skipped, nil)
}
