// Package vindex implements the persistent per-document value index:
// every node's XPath string value, mapped to the pre-sorted list of
// preorder ranks carrying it, with a name-major numeric partition
// derived for the values that parse as numbers.
//
// The tag/kind index (internal/index) makes name tests cheap; this
// package does the same for value predicates. A comparison predicate
// like [price > 100] or a contains() call normally forces the engine
// to compute the string value of every candidate node. With the value
// index, the predicate becomes a range over sorted distinct values,
// resolved to a rank interval by binary search. A rank interval is one
// contiguous slice of the node column (StringRange/NumericRange return
// it as a read-only view); put back into document order (by sorting it
// when it is small, else through a pre bitmap: Order, Intersect) it is a
// pre-sorted node fragment the staircase semijoin machinery can
// intersect with the context, exactly like a name-test fragment.
//
// Layout: the distinct string values (the keys) are sorted and stored
// once, as offsets into one text arena — keyOff + keyText, no string
// header and no heap object per key, so the collector has nothing to
// mark here; every key handed out is a substring of that arena. A CSR
// pair (offsets + node column) maps each key rank to its pre-sorted
// occupant list. Values longer than MaxKeyLen are not keyed — their
// nodes go to the overflow list and are re-evaluated per node at query
// time, so a pathological value (the root element's string value is
// the whole document text) costs one int32, not a copy of the
// document. The numeric partition (ranks whose value parses via
// ParseNumber — the canonical numeric-value semantics, which
// internal/xpath re-exports for the executors) is derived from the
// string partition and the document's name column, both at build and
// at load time, so the two can never disagree. It is name-major: one
// block per element or attribute name (and one for unnamed nodes),
// grouped by number within the block, so a predicate under a name test
// reads its own name's numbers only, the way an inverted file reads one
// keyword's posting list.
//
// Every node of the document is indexed: the keyed lists plus the
// overflow list form an exact partition of [0, n), which is what
// ReadSection validates — a corrupt section yields an error, never a
// silently incomplete fragment.
//
// Like internal/index, the package is doc-agnostic: it is built from
// (pre, string value) pairs so internal/doc can embed and persist it
// (the SCJ2 value section, see WriteSection) without an import cycle.
package vindex

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"staircase/internal/colio"
)

// ParseNumber parses a node string value (or literal) as a finite
// number: optional surrounding whitespace around a decimal float. NaN
// and infinities are rejected — they cannot appear as literals and
// admitting them from content would break the total order the numeric
// partition sorts by. This is the one definition of numeric-value
// semantics; internal/xpath re-exports it so index lookups and
// per-node comparison agree by construction.
func ParseNumber(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	// strconv builds an error value for every string it refuses, and
	// most values are not numbers: turn away what cannot be one first.
	if s == "" || (s[0] < '0' || s[0] > '9') && s[0] != '-' && s[0] != '+' && s[0] != '.' {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, false
	}
	return f, true
}

// MaxKeyLen is the longest string value that is keyed. Longer values
// overflow: their nodes are listed but their values are not stored,
// and predicates re-evaluate them per node.
const MaxKeyLen = 256

// Op is a value-comparison operator the index can answer with a range
// lookup. There is no Ne: `!=` selects the complement of a rank
// interval and is never rewritten to an index lookup.
type Op uint8

const (
	// OpEq selects nodes whose value equals the literal.
	OpEq Op = iota
	// OpLt selects values strictly below the literal.
	OpLt
	// OpLe selects values at or below the literal.
	OpLe
	// OpGt selects values strictly above the literal.
	OpGt
	// OpGe selects values at or above the literal.
	OpGe
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Index is the immutable value index of one document. Safe for
// concurrent readers after Build/ReadSection.
type Index struct {
	// Sorted distinct keyed values, each <= MaxKeyLen bytes: key r is
	// keyText[keyOff[r]:keyOff[r+1]].
	keyOff  []uint32
	keyText string
	strOff  []uint32 // CSR offsets into strPre, one more entry than keys
	strPre  []int32  // node column: pre ranks grouped by key rank, ascending per group

	// Numeric partition, derived from the string partition and the name
	// column: the nodes whose value parses as a finite number, in one
	// block per name, regrouped by that number within the block (several
	// spellings of one number share a group). Block b holds the name id
	// b-1, so unnamed nodes are block 0; its groups are
	// [nameGrp[b], nameGrp[b+1]).
	nameGrp []uint32
	nums    []float64
	numOff  []uint32
	numPre  []int32

	overflow []int32 // nodes with values > MaxKeyLen, ascending

	nodes int // document size the index was built for
}

// key returns the r-th distinct value, a substring of the arena.
func (ix *Index) key(r int) string { return ix.keyText[ix.keyOff[r]:ix.keyOff[r+1]] }

// Builder accumulates (pre, value) pairs in preorder, interning each
// value as it arrives, and builds the index by sorting the distinct
// values only: intern → sort distinct → scatter.
type Builder struct {
	ids      map[string]uint32 // value → id, in order of first appearance
	keys     []string          // id → value
	kid      []uint32          // key id of each keyed node, in Add order
	pres     []int32           // the keyed nodes, ascending
	overflow []int32
	last     int32
	started  bool
}

// Grow sizes the builder for the n nodes of the document to come.
func (b *Builder) Grow(n int) {
	b.pres = slices.Grow(b.pres, n)
	b.kid = slices.Grow(b.kid, n)
}

// Add records one node's string value. Calls must arrive in strictly
// increasing pre order (the document pass), covering every node; Add
// panics on out-of-order input. A value seen for the first time is
// retained until Build, so it should be a substring of long-lived text.
func (b *Builder) Add(pre int32, val string) {
	id, ok := b.ids[val]
	if !ok && len(val) <= MaxKeyLen {
		id = b.intern(val)
	}
	b.add(pre, id, len(val) > MaxKeyLen)
}

// AddBytes is Add for a value assembled in a scratch buffer the caller
// goes on to reuse: the probe allocates nothing, and only a value seen
// for the first time is copied.
func (b *Builder) AddBytes(pre int32, val []byte) {
	id, ok := b.ids[string(val)]
	if !ok && len(val) <= MaxKeyLen {
		id = b.intern(string(val))
	}
	b.add(pre, id, len(val) > MaxKeyLen)
}

// AddOverflow records a node whose string value exceeds MaxKeyLen
// without materialising the value (builders can stop concatenating
// element text at the cap). Same ordering contract as Add.
func (b *Builder) AddOverflow(pre int32) { b.add(pre, 0, true) }

func (b *Builder) intern(val string) uint32 {
	if b.ids == nil {
		b.ids = make(map[string]uint32)
	}
	b.ids[val] = uint32(len(b.keys))
	b.keys = append(b.keys, val)
	return uint32(len(b.keys) - 1)
}

func (b *Builder) add(pre int32, id uint32, overflow bool) {
	if b.started && pre <= b.last {
		panic(fmt.Sprintf("vindex: Add out of preorder: %d after %d", pre, b.last))
	}
	b.started, b.last = true, pre
	if overflow {
		b.overflow = append(b.overflow, pre)
		return
	}
	b.pres = append(b.pres, pre)
	b.kid = append(b.kid, id)
}

// Build constructs the index for a document whose name column is
// names: one name id per node, negative for unnamed nodes. It panics
// unless the added entries cover exactly the pre ranks [0, len(names))
// — the partition invariant ReadSection later revalidates.
func (b *Builder) Build(names []int32) *Index {
	if n := len(names); len(b.pres)+len(b.overflow) != n {
		panic(fmt.Sprintf("vindex: %d entries for a document of %d nodes",
			len(b.pres)+len(b.overflow), n))
	}
	// Sort the distinct values, not the nodes: order[r] names the value
	// of rank r. Each entry carries its value's first eight bytes, which
	// settle most comparisons without a visit to the value itself.
	type sortKey struct {
		head uint64
		id   uint32
	}
	order := make([]sortKey, len(b.keys))
	size := 0
	for i, k := range b.keys {
		var head [8]byte
		copy(head[:], k)
		order[i] = sortKey{binary.BigEndian.Uint64(head[:]), uint32(i)}
		size += len(k)
	}
	slices.SortFunc(order, func(x, y sortKey) int {
		if x.head != y.head {
			return cmp.Compare(x.head, y.head)
		}
		return strings.Compare(b.keys[x.id], b.keys[y.id])
	})
	var (
		rank    = make([]uint32, len(order)) // id → rank
		keyOff  = make([]uint32, 1, len(order)+1)
		keyText strings.Builder
	)
	keyText.Grow(size)
	for r, k := range order {
		rank[k.id] = uint32(r)
		keyText.WriteString(b.keys[k.id])
		keyOff = append(keyOff, uint32(keyText.Len()))
	}
	// Counting sort of the nodes by rank. Add delivered them in
	// preorder, so each value group comes out ascending.
	strOff := make([]uint32, len(order)+1)
	for _, id := range b.kid {
		strOff[rank[id]+1]++
	}
	for r := range order {
		strOff[r+1] += strOff[r]
	}
	next := slices.Clone(strOff[:len(order)])
	strPre := make([]int32, len(b.pres))
	for i, id := range b.kid {
		r := rank[id]
		strPre[next[r]] = b.pres[i]
		next[r]++
	}
	return newIndex(keyOff, keyText.String(), strOff, strPre, b.overflow, names)
}

// newIndex assembles an Index from a validated (or freshly built)
// string partition by deriving the numeric partition. Only the distinct
// numeric values are sorted; a counting pass by name sizes the blocks,
// and each numeric node is scattered into its name's block in number
// order. A group spelled several ways is re-sorted.
func newIndex(keyOff []uint32, keyText string, strOff []uint32, strPre []int32, overflow []int32, names []int32) *Index {
	ix := &Index{
		keyOff: keyOff, keyText: keyText, strOff: strOff, strPre: strPre,
		overflow: overflow, nodes: len(names),
	}
	type numRank struct {
		f float64
		r int // string rank spelling f
	}
	var nrs []numRank
	for r := range ix.NumValues() {
		if f, ok := ParseNumber(ix.key(r)); ok {
			nrs = append(nrs, numRank{f, r})
		}
	}
	// ParseNumber admits no NaN, so plain comparisons order the numbers
	// (cmp.Compare's NaN checks slow the sort down).
	slices.SortFunc(nrs, func(x, y numRank) int {
		switch {
		case x.f < y.f:
			return -1
		case x.f > y.f:
			return 1
		}
		return 0
	})
	// start[b+1] counts block b's nodes; the prefix sums then place the
	// blocks one after another.
	var start []uint32
	for _, nr := range nrs {
		for _, v := range ix.group(nr.r) {
			b := blockOf(names[v])
			if b+2 > len(start) {
				start = append(start, make([]uint32, b+2-len(start))...)
			}
			start[b+1]++
		}
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	total := 0
	if len(start) > 0 {
		total = int(start[len(start)-1])
	}
	// Scatter in number order, each spelling's nodes ascending; from[i]
	// remembers which spelling placed the i-th node.
	ix.numPre = make([]int32, total)
	from := make([]int32, total)
	next := slices.Clone(start)
	for i, nr := range nrs {
		for _, v := range ix.group(nr.r) {
			b := blockOf(names[v])
			ix.numPre[next[b]], from[next[b]] = v, int32(i)
			next[b]++
		}
	}
	// Cut each block into groups at every change of number.
	ix.nameGrp = make([]uint32, 1, max(len(start), 1))
	ix.nums = make([]float64, 0, len(nrs))
	ix.numOff = make([]uint32, 1, len(nrs)+1)
	for b := 0; b+1 < len(start); b++ {
		for i, end := start[b], start[b+1]; i < end; {
			f, j := nrs[from[i]].f, i+1
			for j < end && nrs[from[j]].f == f {
				j++
			}
			if from[j-1] != from[i] {
				slices.Sort(ix.numPre[i:j])
			}
			ix.nums = append(ix.nums, f)
			ix.numOff = append(ix.numOff, j)
			i = j
		}
		ix.nameGrp = append(ix.nameGrp, uint32(len(ix.nums)))
	}
	return ix
}

// blockOf returns the numeric partition block of a name id: unnamed
// nodes (a negative id) share block 0.
func blockOf(name int32) int { return int(max(name, -1)) + 1 }

// group returns the pre-sorted node list of string rank r.
func (ix *Index) group(r int) []int32 { return ix.strPre[ix.strOff[r]:ix.strOff[r+1]] }

// Nodes returns the size of the document the index was built for.
func (ix *Index) Nodes() int { return ix.nodes }

// NumValues returns the number of distinct keyed string values.
func (ix *Index) NumValues() int { return len(ix.keyOff) - 1 }

// Entries returns the number of indexed nodes: keyed plus overflow.
// For a complete index this equals the node count.
func (ix *Index) Entries() int64 {
	return int64(len(ix.strPre)) + int64(len(ix.overflow))
}

// Overflow returns the pre-sorted nodes whose values exceeded
// MaxKeyLen. Predicates must re-evaluate these per node; the returned
// slice must not be modified.
func (ix *Index) Overflow() []int32 { return ix.overflow }

// Bytes returns the in-memory footprint of the index (the key arena,
// the numbers of the numeric groups, the block offsets and the CSR
// arrays of both partitions). The catalog charges this against its
// residency budget alongside IndexBytes.
func (ix *Index) Bytes() int64 {
	total := int64(len(ix.keyText))
	total += 4 * int64(len(ix.keyOff)+len(ix.strOff)+len(ix.nameGrp)+len(ix.numOff))
	total += 4 * int64(len(ix.strPre)+len(ix.numPre)+len(ix.overflow))
	total += 8 * int64(len(ix.nums))
	return total
}

// StringRange returns the keyed nodes whose string value stands in
// relation op to lit as a read-only view of the node column: grouped by
// value, ascending within each group (callers handle Overflow
// separately). inOrder reports that the view is already in document
// order because it spans at most one value group; otherwise a caller
// that needs document order puts the nodes it wants in order through
// Order or Intersect.
func (ix *Index) StringRange(op Op, lit string) (view []int32, inOrder bool) {
	n := ix.NumValues()
	ge := sort.Search(n, func(r int) bool { return ix.key(r) >= lit }) // first rank >= lit
	gt := ge                                                           // first rank > lit
	if gt < n && ix.key(gt) == lit {
		gt++
	}
	return rankView(ix.strOff, ix.strPre, op, ge, gt)
}

// NumericRange is StringRange over one name's block of the numeric
// partition: the nodes carrying the name id (a negative id selects the
// unnamed nodes) whose value parses as a number standing in relation op
// to f. Values that do not parse never match (xpath.CompareValue
// semantics).
func (ix *Index) NumericRange(op Op, f float64, name int32) (view []int32, inOrder bool) {
	b := blockOf(name)
	if b+1 >= len(ix.nameGrp) {
		return nil, true
	}
	return ix.blockRange(op, f, b)
}

// blockRange is NumericRange over block b.
func (ix *Index) blockRange(op Op, f float64, b int) (view []int32, inOrder bool) {
	lo, hi := ix.nameGrp[b], ix.nameGrp[b+1]
	nums := ix.nums[lo:hi]
	ge := sort.SearchFloat64s(nums, f)
	gt := ge
	if gt < len(nums) && nums[gt] == f {
		gt++
	}
	return rankView(ix.numOff[lo:hi+1], ix.numPre, op, ge, gt)
}

// rankView turns the (first >= lit, first > lit) bracketing ranks into
// the rank interval an operator selects and returns that interval's
// slice of the node column.
func rankView(off []uint32, pres []int32, op Op, ge, gt int) (view []int32, inOrder bool) {
	lo, hi := 0, len(off)-1 // half-open rank interval
	switch op {
	case OpEq:
		lo, hi = ge, gt
	case OpLt:
		hi = ge
	case OpLe:
		hi = gt
	case OpGt:
		lo = gt
	default: // OpGe
		lo = ge
	}
	if lo >= hi {
		return nil, true
	}
	return pres[off[lo]:off[hi]], hi-lo == 1
}

// LookupString returns the result of StringRange as a freshly
// allocated slice in document order.
func (ix *Index) LookupString(op Op, lit string) []int32 {
	view, inOrder := ix.StringRange(op, lit)
	return ix.appendOrdered(nil, view, inOrder, nil)
}

// LookupNumeric returns, as a freshly allocated slice in document
// order, the nodes of every name whose value parses as a number
// standing in relation op to f.
func (ix *Index) LookupNumeric(op Op, f float64) []int32 {
	return ix.AppendNumericAll(nil, op, f, nil)
}

// AppendNumeric appends to dst, in document order, the nodes of
// NumericRange(op, f, name) that keep accepts (all of them when keep is
// nil), and returns the extended slice. It reads that name's block only.
func (ix *Index) AppendNumeric(dst []int32, op Op, f float64, name int32, keep func(v int32) bool) []int32 {
	view, inOrder := ix.NumericRange(op, f, name)
	return ix.appendOrdered(dst, view, inOrder, keep)
}

// AppendNumericAll is AppendNumeric over every name at once: each
// block's range is set into one pre bitmap, read back in document order.
func (ix *Index) AppendNumericAll(dst []int32, op Op, f float64, keep func(v int32) bool) []int32 {
	var (
		m       int
		one     []int32 // the first non-empty range, until a second one shows
		inOrder bool
		bm      *bitmap
	)
	for b := range len(ix.nameGrp) - 1 {
		view, in := ix.blockRange(op, f, b)
		switch {
		case len(view) == 0:
			continue
		case one == nil:
			one, inOrder = view, in
		case bm == nil:
			bm = acquireBitmap(ix.nodes, one)
			fallthrough
		default:
			bm.set(view)
		}
		m += len(view)
	}
	if bm == nil {
		return ix.appendOrdered(dst, one, inOrder, keep)
	}
	dst = bm.appendTo(reserve(dst, m), keep)
	bm.release()
	return dst
}

// reserve returns dst with room for m more entries, reallocated at most
// once. (slices.Grow allocates twice under the race detector.)
func reserve(dst []int32, m int) []int32 {
	if cap(dst)-len(dst) >= m {
		return dst
	}
	return append(make([]int32, 0, len(dst)+m), dst...)
}

// appendOrdered appends the members of view that keep accepts to dst in
// document order. A view spanning one group is in order already; m
// nodes spanning several are sorted while m·log₂m is below the n/64
// words a pre bitmap would read, and put in order through one otherwise.
// dst grows at most once, to hold all of view.
func (ix *Index) appendOrdered(dst, view []int32, inOrder bool, keep func(v int32) bool) []int32 {
	m := len(view)
	if m == 0 {
		return dst
	}
	dst = reserve(dst, m)
	if !inOrder && m*bits.Len(uint(m)) >= (ix.nodes+63)>>6 {
		return Order(dst, view, ix.nodes, keep)
	}
	start := len(dst)
	dst = append(dst, view...)
	if !inOrder {
		slices.Sort(dst[start:])
	}
	if keep == nil {
		return dst
	}
	kept := start
	for _, v := range dst[start:] {
		if keep(v) {
			dst[kept] = v
			kept++
		}
	}
	return dst[:kept]
}

// ContainsSubstr returns the pre-sorted nodes whose keyed string value
// contains sub: one sweep of strings.Index over the key arena. A hit is
// mapped to the key it starts in; one that runs past that key's end
// straddles two keys and matches neither. Either way the sweep resumes
// at the next key.
func (ix *Index) ContainsSubstr(sub string) []int32 {
	if sub == "" {
		return ix.appendOrdered(nil, ix.strPre, ix.NumValues() <= 1, nil)
	}
	var out []int32
	groups, n := 0, ix.NumValues()
	for r, from := 0, 0; ; {
		i := strings.Index(ix.keyText[from:], sub)
		if i < 0 {
			break
		}
		hit := uint32(from + i)
		// The key holding hit is the first at or after r that ends past
		// it: gallop there, hits being close together.
		step := 1
		for ; r+step < n && ix.keyOff[r+step] <= hit; step *= 2 {
			r += step
		}
		r += sort.Search(min(step, n-r)-1, func(k int) bool { return ix.keyOff[r+1+k] > hit })
		if hit+uint32(len(sub)) <= ix.keyOff[r+1] {
			groups++
			out = append(out, ix.strPre[ix.strOff[r]:ix.strOff[r+1]]...)
		}
		r++
		from = int(ix.keyOff[r])
	}
	if groups > 1 {
		out = Order(out[:0], out, ix.nodes, nil)
	}
	return out
}

// ForEachString visits every keyed value group in value order with its
// pre-sorted node list. val is a substring of the index's key arena;
// the callback must not retain or modify pres.
func (ix *Index) ForEachString(f func(val string, pres []int32)) {
	for r := range ix.NumValues() {
		f(ix.key(r), ix.strPre[ix.strOff[r]:ix.strOff[r+1]])
	}
}

// ForEachNumeric visits every numeric group in (name, number) order
// with its pre-sorted node list; name is -1 for unnamed nodes. The
// callback must not retain or modify pres.
func (ix *Index) ForEachNumeric(f func(name int32, val float64, pres []int32)) {
	for b := range len(ix.nameGrp) - 1 {
		for g := ix.nameGrp[b]; g < ix.nameGrp[b+1]; g++ {
			f(int32(b)-1, ix.nums[g], ix.numPre[ix.numOff[g]:ix.numOff[g+1]])
		}
	}
}

// --- persistence (the SCJ2 value section) -----------------------------------
//
// Layout (little endian), written after the index section:
//
//	numValues u32 | numKeyed u32 | numOverflow u32
//	per value, ascending: len u32 | bytes
//	strOff  [numValues+1]u32 (absent when numValues == 0)
//	strPre  [numKeyed]i32
//	overflow [numOverflow]i32
//
// The encoding is canonical: values are strictly ascending and at most
// MaxKeyLen bytes, offsets are strictly increasing (every distinct
// value owns at least one node), per-group node lists are strictly
// ascending, and the keyed lists plus the overflow list partition
// [0, n) exactly. The numeric partition is not stored — it derives
// deterministically on load from these lists and the document's name
// column — so writing a freshly read index reproduces the input bytes
// exactly.

// WriteSection serializes the index.
func (ix *Index) WriteSection(w io.Writer) error {
	bw := colio.Writer(w)
	err := colio.WriteUint32(bw, uint32(ix.NumValues()), uint32(len(ix.strPre)), uint32(len(ix.overflow)))
	for r := 0; r < ix.NumValues() && err == nil; r++ {
		err = colio.WriteRecord(bw, ix.key(r))
	}
	if err == nil && ix.NumValues() > 0 {
		err = colio.WriteWords(bw, ix.strOff)
	}
	if err == nil {
		err = colio.WriteWords(bw, ix.strPre)
	}
	if err == nil {
		err = colio.WriteWords(bw, ix.overflow)
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSection deserializes and validates a value section for a
// document whose name column is names (see Build). Corrupt input of any shape (bad lengths,
// unsorted values or node lists, out-of-range ranks, overlapping or
// incomplete partitions, truncation) yields an error, never a panic or
// an unbounded allocation. When r is a bufio.Reader of at least
// colio.BufSize it is read in place, consuming the section and no more.
func ReadSection(r io.Reader, names []int32) (*Index, error) {
	n := len(names)
	br := colio.Reader(r)
	hdr, err := colio.ReadWords[uint32](br, 3)
	if err != nil {
		return nil, fmt.Errorf("vindex: read section header: %w", err)
	}
	numValues, numKeyed, numOverflow := hdr[0], hdr[1], hdr[2]
	if int64(numKeyed)+int64(numOverflow) != int64(n) {
		return nil, fmt.Errorf("vindex: %d keyed + %d overflow nodes for a document of %d",
			numKeyed, numOverflow, n)
	}
	if int64(numValues) > int64(numKeyed) {
		return nil, fmt.Errorf("vindex: %d distinct values but %d keyed nodes", numValues, numKeyed)
	}
	// The keys stream into the arena; there are at most n of them.
	keyOff, text, err := colio.ReadRecords(br, int(numValues), MaxKeyLen)
	if err != nil {
		return nil, fmt.Errorf("vindex: read values: %w", err)
	}
	for i := 1; i < int(numValues); i++ {
		if bytes.Compare(text[keyOff[i]:keyOff[i+1]], text[keyOff[i-1]:keyOff[i]]) <= 0 {
			return nil, fmt.Errorf("vindex: values not strictly ascending at %d", i)
		}
	}
	strOff := []uint32{0}
	if numValues > 0 {
		if strOff, err = colio.ReadWords[uint32](br, int(numValues)+1); err != nil {
			return nil, fmt.Errorf("vindex: read offsets: %w", err)
		}
		if strOff[0] != 0 || strOff[numValues] != numKeyed {
			return nil, fmt.Errorf("vindex: offsets span [%d,%d], want [0,%d]",
				strOff[0], strOff[numValues], numKeyed)
		}
		for i := 1; i <= int(numValues); i++ {
			if strOff[i] <= strOff[i-1] {
				return nil, fmt.Errorf("vindex: empty or descending value group %d", i-1)
			}
		}
	} else if numKeyed > 0 {
		return nil, fmt.Errorf("vindex: %d keyed nodes but no values", numKeyed)
	}
	strPre, err := colio.ReadWords[int32](br, int(numKeyed))
	if err != nil {
		return nil, fmt.Errorf("vindex: read node lists: %w", err)
	}
	overflow, err := colio.ReadWords[int32](br, int(numOverflow))
	if err != nil {
		return nil, fmt.Errorf("vindex: read overflow list: %w", err)
	}
	// Partition check: per-group ascending, all ranks in range, every
	// rank covered exactly once across keyed groups and overflow.
	seen := make([]bool, n)
	mark := func(v int32, what string) error {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("vindex: %s node %d outside [0,%d)", what, v, n)
		}
		if seen[v] {
			return fmt.Errorf("vindex: node %d indexed twice", v)
		}
		seen[v] = true
		return nil
	}
	for g := 0; g+1 < len(strOff); g++ {
		group := strPre[strOff[g]:strOff[g+1]]
		for i, v := range group {
			if i > 0 && v <= group[i-1] {
				return nil, fmt.Errorf("vindex: value group %d not strictly ascending", g)
			}
			if err := mark(v, "keyed"); err != nil {
				return nil, err
			}
		}
	}
	for i, v := range overflow {
		if i > 0 && v <= overflow[i-1] {
			return nil, fmt.Errorf("vindex: overflow list not strictly ascending")
		}
		if err := mark(v, "overflow"); err != nil {
			return nil, err
		}
	}
	return newIndex(keyOff, string(text), strOff, strPre, overflow, names), nil
}
