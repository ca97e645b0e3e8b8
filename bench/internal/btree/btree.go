// Package btree implements a B+-tree over composite integer keys, the
// index structure the tree-unaware SQL baseline of the staircase join
// paper relies on.
//
// The paper's analysis of the IBM DB2 plan (Figure 3) shows the RDBMS
// maintaining "a B-tree using concatenated (pre, post) keys" — and, for
// the early name test of Experiment 3, "(pre, post, tag name) keys".
// This package provides exactly that: keys are triples ordered
// lexicographically, values are node pre ranks, and range scans walk the
// linked leaf level. Access counters (nodes visited, keys compared)
// feed the experiment harness.
//
// The tree is built bottom-up from sorted input (bulk loading, the way
// a document-order index is created at load time); it is read-only
// afterwards. The zero Tree value, like a bulk load of no entries, is
// an empty tree: Seek, Scan, Count, Len, Depth and Validate treat it as
// empty.
package btree

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Key is a composite key of up to three int32 components compared
// lexicographically. Unused components should be left 0 (or use Min/Max
// sentinels for range bounds).
type Key struct {
	A, B, C int32
}

// Less reports whether k orders strictly before o.
func (k Key) Less(o Key) bool {
	if k.A != o.A {
		return k.A < o.A
	}
	if k.B != o.B {
		return k.B < o.B
	}
	return k.C < o.C
}

// Compare returns -1, 0, or +1.
func (k Key) Compare(o Key) int {
	switch {
	case k.Less(o):
		return -1
	case o.Less(k):
		return +1
	default:
		return 0
	}
}

// String renders the key for diagnostics.
func (k Key) String() string { return fmt.Sprintf("(%d,%d,%d)", k.A, k.B, k.C) }

// MinKey and MaxKey are range-bound sentinels.
var (
	MinKey = Key{A: -1 << 31, B: -1 << 31, C: -1 << 31}
	MaxKey = Key{A: 1<<31 - 1, B: 1<<31 - 1, C: 1<<31 - 1}
)

// Stats counts index work. Counters accumulate across operations; the
// experiment harness resets them between measurements. Increments are
// atomic so a tree shared by concurrent readers stays race-free;
// reading the counters while scans are in flight yields approximate
// values.
type Stats struct {
	// NodesVisited counts inner and leaf nodes touched ("index pages").
	NodesVisited int64
	// KeysScanned counts leaf entries inspected during range scans.
	KeysScanned int64
	// Seeks counts root-to-leaf descents.
	Seeks int64
}

// Reset zeroes all counters.
func (s *Stats) Reset() { *s = Stats{} }

// order is the fan-out of inner nodes and capacity of leaves. 64 keys ×
// 16 bytes ≈ 1 KiB nodes, a plausible page fraction; the exact value
// only scales constants in the experiments.
const order = 64

type node struct {
	// keys[i] separates children[i] (< keys[i]) from children[i+1]
	// (>= keys[i]) in inner nodes; in leaves, keys[i] pairs with
	// vals[i].
	keys     []Key
	children []*node // inner nodes only
	vals     []int32 // leaves only
	next     *node   // leaf chain
	leaf     bool
}

// Tree is a B+-tree mapping composite keys to int32 values. Duplicate
// keys are allowed (multi-map), in their bulk-load order.
type Tree struct {
	root  *node
	size  int
	depth int
	stats *Stats
}

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

// Depth returns the current height of the tree (leaf level = 1).
func (t *Tree) Depth() int { return t.depth }

// BulkLoad builds a tree from entries sorted by key. It panics if the
// input is unsorted (the caller is expected to deliver index-order
// input, e.g. the pre-sorted document table). Values pair positionally
// with keys.
func BulkLoad(keys []Key, vals []int32, st *Stats) *Tree {
	if len(keys) != len(vals) {
		panic("btree: BulkLoad length mismatch")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i].Less(keys[i-1]) {
			panic(fmt.Sprintf("btree: BulkLoad input unsorted at %d: %v < %v", i, keys[i], keys[i-1]))
		}
	}
	t := &Tree{stats: st}
	if len(keys) == 0 {
		return t
	}
	// Build the leaf level.
	var leaves []*node
	for i := 0; i < len(keys); i += order {
		j := i + order
		if j > len(keys) {
			j = len(keys)
		}
		lf := &node{
			leaf: true,
			keys: append([]Key(nil), keys[i:j]...),
			vals: append([]int32(nil), vals[i:j]...),
		}
		if len(leaves) > 0 {
			leaves[len(leaves)-1].next = lf
		}
		leaves = append(leaves, lf)
	}
	// Build inner levels bottom-up.
	level := leaves
	depth := 1
	for len(level) > 1 {
		var upper []*node
		for i := 0; i < len(level); i += order {
			j := i + order
			if j > len(level) {
				j = len(level)
			}
			in := &node{children: append([]*node(nil), level[i:j]...)}
			for _, ch := range in.children[1:] {
				in.keys = append(in.keys, firstKey(ch))
			}
			upper = append(upper, in)
		}
		level = upper
		depth++
	}
	t.root = level[0]
	t.depth = depth
	t.size = len(keys)
	return t
}

// firstKey returns the smallest key reachable under n.
func firstKey(n *node) Key {
	for !n.leaf {
		n = n.children[0]
	}
	return n.keys[0]
}

// Iterator walks leaf entries in key order starting at a lower bound.
type Iterator struct {
	t    *Tree
	n    *node
	pos  int
	done bool
}

// Seek positions an iterator at the first entry with key >= lower.
// On an empty (or zero-value) tree the returned iterator is immediately
// invalid.
func (t *Tree) Seek(lower Key) *Iterator {
	if t.stats != nil {
		atomic.AddInt64(&t.stats.Seeks, 1)
	}
	n := t.root
	if n == nil { // zero-value Tree: no root was ever allocated
		return &Iterator{t: t, done: true}
	}
	for {
		if t.stats != nil {
			atomic.AddInt64(&t.stats.NodesVisited, 1)
		}
		if n.leaf {
			break
		}
		// Descend at the first separator >= lower: with duplicate keys
		// the left sibling of an equal separator may still hold equal
		// entries.
		pos := sort.Search(len(n.keys), func(i int) bool { return !n.keys[i].Less(lower) })
		n = n.children[pos]
	}
	pos := sort.Search(len(n.keys), func(i int) bool { return !n.keys[i].Less(lower) })
	it := &Iterator{t: t, n: n, pos: pos}
	it.skipToData()
	return it
}

// skipToData advances across exhausted leaves.
func (it *Iterator) skipToData() {
	for it.n != nil && it.pos >= len(it.n.keys) {
		it.n = it.n.next
		it.pos = 0
		if it.n != nil && it.t.stats != nil {
			atomic.AddInt64(&it.t.stats.NodesVisited, 1)
		}
	}
	if it.n == nil {
		it.done = true
	}
}

// Valid reports whether the iterator currently points at an entry.
func (it *Iterator) Valid() bool { return !it.done }

// Key returns the current entry's key, or the zero Key when the
// iterator is exhausted.
func (it *Iterator) Key() Key {
	if it.done {
		return Key{}
	}
	return it.n.keys[it.pos]
}

// Value returns the current entry's value, or 0 when the iterator is
// exhausted.
func (it *Iterator) Value() int32 {
	if it.done {
		return 0
	}
	return it.n.vals[it.pos]
}

// Next advances to the following entry in key order.
func (it *Iterator) Next() {
	if it.done {
		return
	}
	if it.t.stats != nil {
		atomic.AddInt64(&it.t.stats.KeysScanned, 1)
	}
	it.pos++
	it.skipToData()
}

// Scan visits all entries with lower <= key <= upper in key order,
// stopping early if f returns false.
func (t *Tree) Scan(lower, upper Key, f func(Key, int32) bool) {
	for it := t.Seek(lower); it.Valid(); it.Next() {
		k := it.Key()
		if upper.Less(k) {
			if t.stats != nil {
				atomic.AddInt64(&t.stats.KeysScanned, 1) // the delimiting probe
			}
			return
		}
		if !f(k, it.Value()) {
			return
		}
	}
}

// Count returns the number of entries in [lower, upper].
func (t *Tree) Count(lower, upper Key) int {
	n := 0
	t.Scan(lower, upper, func(Key, int32) bool { n++; return true })
	return n
}

// Validate checks B+-tree structural invariants (key ordering, leaf
// chain consistency, entry count). For tests.
func (t *Tree) Validate() error {
	if t.root == nil { // zero-value Tree
		if t.size != 0 {
			return fmt.Errorf("btree: nil root but size %d", t.size)
		}
		return nil
	}
	count := 0
	var prev *Key
	var leaves []*node // left-to-right leaf order, for the chain check
	var walk func(n *node, lo, hi *Key) error
	walk = func(n *node, lo, hi *Key) error {
		if n.leaf {
			leaves = append(leaves, n)
			for _, k := range n.keys {
				if lo != nil && k.Less(*lo) {
					return fmt.Errorf("btree: leaf key %v below bound %v", k, *lo)
				}
				// With duplicate keys a leaf entry may equal the
				// separator above it, so the upper bound is inclusive.
				if hi != nil && hi.Less(k) {
					return fmt.Errorf("btree: leaf key %v above bound %v", k, *hi)
				}
				if prev != nil && k.Less(*prev) {
					return fmt.Errorf("btree: leaf order violation at %v", k)
				}
				kc := k
				prev = &kc
				count++
			}
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree: inner node fan-out mismatch")
		}
		for i, ch := range n.children {
			var clo, chi *Key
			if i > 0 {
				clo = &n.keys[i-1]
			} else {
				clo = lo
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			} else {
				chi = hi
			}
			if err := walk(ch, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, nil, nil); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d reachable entries", t.size, count)
	}
	// The leaf chain must link exactly the tree's leaves, in
	// left-to-right order, and terminate — a broken chain would make
	// range scans skip or repeat entries even when per-node ordering
	// holds.
	for i, lf := range leaves {
		var want *node
		if i+1 < len(leaves) {
			want = leaves[i+1]
		}
		if lf.next != want {
			return fmt.Errorf("btree: leaf chain broken after leaf %d of %d", i, len(leaves))
		}
	}
	return nil
}
