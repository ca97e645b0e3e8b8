// Package vindex implements the persistent per-document value index:
// every node's XPath string value, mapped to the pre-sorted list of
// preorder ranks carrying it, with a numeric partition derived for the
// values that parse as numbers.
//
// The tag/kind index (internal/index) makes name tests cheap; this
// package does the same for value predicates. A comparison predicate
// like [price > 100] or a contains() call normally forces the engine
// to compute the string value of every candidate node. With the value
// index, the predicate becomes a range over sorted distinct values,
// resolved to a rank interval by binary search. A rank interval is one
// contiguous slice of the node column (StringRange/NumericRange return
// it as a read-only view); copied and sorted back into document order
// it is a pre-sorted node fragment the staircase semijoin machinery
// can intersect with the context, exactly like a name-test fragment.
//
// Layout: the distinct string values are sorted and stored once; a CSR
// pair (offsets + node column) maps each value rank to its pre-sorted
// occupant list. Values longer than MaxKeyLen are not keyed — their
// nodes go to the overflow list and are re-evaluated per node at query
// time, so a pathological value (the root element's string value is
// the whole document text) costs one int32, not a copy of the
// document. The numeric partition (ranks whose value parses via
// ParseNumber — the canonical numeric-value semantics, which
// internal/xpath re-exports for the executors) is derived from the
// string partition, both at build and at load time, so the two can
// never disagree.
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
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ParseNumber parses a node string value (or literal) as a finite
// number: optional surrounding whitespace around a decimal float. NaN
// and infinities are rejected — they cannot appear as literals and
// admitting them from content would break the total order the numeric
// partition sorts by. This is the one definition of numeric-value
// semantics; internal/xpath re-exports it so index lookups and
// per-node comparison agree by construction.
func ParseNumber(s string) (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
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
	strs   []string // sorted distinct keyed values, each <= MaxKeyLen bytes
	strOff []uint32 // CSR offsets into strPre, len(strs)+1 entries
	strPre []int32  // node column: pre ranks grouped by value rank, ascending per group

	// Numeric partition, derived from the string partition: the nodes
	// whose value parses as a finite number, regrouped by that number
	// (several spellings of one number share a group).
	nums   []float64
	numOff []uint32
	numPre []int32

	overflow []int32 // nodes with values > MaxKeyLen, ascending

	nodes int // document size the index was built for
}

// Builder accumulates (pre, value) pairs in preorder and builds the
// index in one sort.
type Builder struct {
	entries  []entry
	overflow []int32
	last     int32
	started  bool
}

type entry struct {
	val string
	pre int32
}

// Add records one node's string value. Calls must arrive in strictly
// increasing pre order (the document pass), covering every node; Add
// panics on out-of-order input.
func (b *Builder) Add(pre int32, val string) {
	if len(val) > MaxKeyLen {
		b.AddOverflow(pre)
		return
	}
	b.advance(pre)
	b.entries = append(b.entries, entry{val, pre})
}

// AddOverflow records a node whose string value exceeds MaxKeyLen
// without materialising the value (builders can stop concatenating
// element text at the cap). Same ordering contract as Add.
func (b *Builder) AddOverflow(pre int32) {
	b.advance(pre)
	b.overflow = append(b.overflow, pre)
}

func (b *Builder) advance(pre int32) {
	if b.started && pre <= b.last {
		panic(fmt.Sprintf("vindex: Add out of preorder: %d after %d", pre, b.last))
	}
	b.started, b.last = true, pre
}

// Build constructs the index for a document of n nodes. It panics
// unless the added entries cover exactly the pre ranks [0, n) — the
// partition invariant ReadSection later revalidates.
func (b *Builder) Build(n int) *Index {
	if len(b.entries)+len(b.overflow) != n {
		panic(fmt.Sprintf("vindex: %d entries for a document of %d nodes",
			len(b.entries)+len(b.overflow), n))
	}
	// Stable by value: Add delivered pres in preorder, so each value
	// group stays ascending.
	slices.SortStableFunc(b.entries, func(x, y entry) int { return strings.Compare(x.val, y.val) })
	var (
		strs   []string
		strOff = make([]uint32, 0, 16)
		strPre = make([]int32, 0, len(b.entries))
	)
	strOff = append(strOff, 0)
	for i, e := range b.entries {
		if i == 0 || e.val != b.entries[i-1].val {
			strs = append(strs, e.val)
			if i > 0 {
				strOff = append(strOff, uint32(i))
			}
		}
		strPre = append(strPre, e.pre)
	}
	strOff = append(strOff, uint32(len(strPre)))
	if len(strs) == 0 {
		strOff = strOff[:1]
	}
	return newIndex(strs, strOff, strPre, b.overflow, n)
}

// newIndex assembles an Index from a validated (or freshly built)
// string partition by deriving the numeric partition. Only the distinct
// numeric values are sorted; each numeric group is the concatenation of
// its spellings' node lists, re-sorted when there are several.
func newIndex(strs []string, strOff []uint32, strPre []int32, overflow []int32, n int) *Index {
	ix := &Index{
		strs: strs, strOff: strOff, strPre: strPre,
		overflow: overflow, nodes: n,
	}
	type numRank struct {
		f float64
		r int // string rank spelling f
	}
	var (
		nrs   []numRank
		total uint32
	)
	for r, s := range strs {
		if f, ok := ParseNumber(s); ok {
			nrs = append(nrs, numRank{f, r})
			total += strOff[r+1] - strOff[r]
		}
	}
	slices.SortFunc(nrs, func(x, y numRank) int { return cmp.Compare(x.f, y.f) })
	ix.numOff = append(ix.numOff, 0)
	ix.numPre = make([]int32, 0, total)
	for i := 0; i < len(nrs); {
		start, j := len(ix.numPre), i
		for ; j < len(nrs) && nrs[j].f == nrs[i].f; j++ {
			r := nrs[j].r
			ix.numPre = append(ix.numPre, strPre[strOff[r]:strOff[r+1]]...)
		}
		if j-i > 1 {
			slices.Sort(ix.numPre[start:])
		}
		ix.nums = append(ix.nums, nrs[i].f)
		ix.numOff = append(ix.numOff, uint32(len(ix.numPre)))
		i = j
	}
	return ix
}

// Nodes returns the size of the document the index was built for.
func (ix *Index) Nodes() int { return ix.nodes }

// NumValues returns the number of distinct keyed string values.
func (ix *Index) NumValues() int { return len(ix.strs) }

// NumNumeric returns the number of distinct numeric values.
func (ix *Index) NumNumeric() int { return len(ix.nums) }

// Entries returns the number of indexed nodes: keyed plus overflow.
// For a complete index this equals the node count.
func (ix *Index) Entries() int64 {
	return int64(len(ix.strPre)) + int64(len(ix.overflow))
}

// Overflow returns the pre-sorted nodes whose values exceeded
// MaxKeyLen. Predicates must re-evaluate these per node; the returned
// slice must not be modified.
func (ix *Index) Overflow() []int32 { return ix.overflow }

// Bytes returns the in-memory footprint of the index (the distinct
// strings and numbers plus the CSR arrays of both partitions). The
// catalog charges this against its residency budget alongside
// IndexBytes.
func (ix *Index) Bytes() int64 {
	const stringHeader = 16
	total := int64(0)
	for _, s := range ix.strs {
		total += stringHeader + int64(len(s))
	}
	total += 4 * int64(len(ix.strOff)+len(ix.numOff))
	total += 4 * int64(len(ix.strPre)+len(ix.numPre)+len(ix.overflow))
	total += 8 * int64(len(ix.nums))
	return total
}

// StringRange returns the keyed nodes whose string value stands in
// relation op to lit as a read-only view of the node column: grouped by
// value, ascending within each group (callers handle Overflow
// separately). inOrder reports that the view is already in document
// order because it spans at most one value group; otherwise a caller
// that needs document order copies the nodes it wants and sorts them.
func (ix *Index) StringRange(op Op, lit string) (view []int32, inOrder bool) {
	ge := sort.SearchStrings(ix.strs, lit) // first rank >= lit
	gt := ge                               // first rank > lit
	if gt < len(ix.strs) && ix.strs[gt] == lit {
		gt++
	}
	return rankView(ix.strOff, ix.strPre, op, ge, gt)
}

// NumericRange is StringRange over the numeric partition: the nodes
// whose value parses as a number standing in relation op to f. Values
// that do not parse never match (xpath.CompareValue semantics).
func (ix *Index) NumericRange(op Op, f float64) (view []int32, inOrder bool) {
	ge := sort.SearchFloat64s(ix.nums, f)
	gt := ge
	if gt < len(ix.nums) && ix.nums[gt] == f {
		gt++
	}
	return rankView(ix.numOff, ix.numPre, op, ge, gt)
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
	return sortedCopy(ix.StringRange(op, lit))
}

// LookupNumeric returns the result of NumericRange as a freshly
// allocated slice in document order.
func (ix *Index) LookupNumeric(op Op, f float64) []int32 {
	return sortedCopy(ix.NumericRange(op, f))
}

func sortedCopy(view []int32, inOrder bool) []int32 {
	if len(view) == 0 {
		return nil
	}
	out := slices.Clone(view)
	if !inOrder {
		slices.Sort(out)
	}
	return out
}

// ContainsSubstr returns the pre-sorted nodes whose keyed string value
// contains sub. The scan over distinct values is O(#values × |value|).
func (ix *Index) ContainsSubstr(sub string) []int32 {
	var out []int32
	groups := 0
	for r, s := range ix.strs {
		if strings.Contains(s, sub) {
			groups++
			out = append(out, ix.strPre[ix.strOff[r]:ix.strOff[r+1]]...)
		}
	}
	if groups > 1 {
		slices.Sort(out)
	}
	return out
}

// ForEachString visits every keyed value group in value order with its
// pre-sorted node list. The callback must not retain or modify pres.
func (ix *Index) ForEachString(f func(val string, pres []int32)) {
	for r, s := range ix.strs {
		f(s, ix.strPre[ix.strOff[r]:ix.strOff[r+1]])
	}
}

// ForEachNumeric visits every numeric value group in numeric order.
func (ix *Index) ForEachNumeric(f func(val float64, pres []int32)) {
	for r, n := range ix.nums {
		f(n, ix.numPre[ix.numOff[r]:ix.numOff[r+1]])
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
// deterministically on load — so writing a freshly read index
// reproduces the input bytes exactly.

// WriteSection serializes the index.
func (ix *Index) WriteSection(w io.Writer) error {
	hdr := []uint32{uint32(len(ix.strs)), uint32(len(ix.strPre)), uint32(len(ix.overflow))}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, s := range ix.strs {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, s); err != nil {
			return err
		}
	}
	if len(ix.strs) > 0 {
		if err := binary.Write(w, binary.LittleEndian, ix.strOff); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, ix.strPre); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, ix.overflow)
}

// ReadSection deserializes and validates a value section for a
// document of n nodes. Corrupt input of any shape (bad lengths,
// unsorted values or node lists, out-of-range ranks, overlapping or
// incomplete partitions, truncation) yields an error, never a panic or
// an unbounded allocation.
func ReadSection(r io.Reader, n int) (*Index, error) {
	var numValues, numKeyed, numOverflow uint32
	for _, v := range []*uint32{&numValues, &numKeyed, &numOverflow} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("vindex: read section header: %w", err)
		}
	}
	if int64(numKeyed)+int64(numOverflow) != int64(n) {
		return nil, fmt.Errorf("vindex: %d keyed + %d overflow nodes for a document of %d",
			numKeyed, numOverflow, n)
	}
	if int64(numValues) > int64(numKeyed) {
		return nil, fmt.Errorf("vindex: %d distinct values but %d keyed nodes", numValues, numKeyed)
	}
	strs := make([]string, 0, numValues)
	buf := make([]byte, MaxKeyLen)
	for i := uint32(0); i < numValues; i++ {
		var l uint32
		if err := binary.Read(r, binary.LittleEndian, &l); err != nil {
			return nil, fmt.Errorf("vindex: read value length: %w", err)
		}
		if l > MaxKeyLen {
			return nil, fmt.Errorf("vindex: value %d has length %d > %d", i, l, MaxKeyLen)
		}
		if _, err := io.ReadFull(r, buf[:l]); err != nil {
			return nil, fmt.Errorf("vindex: read value %d: %w", i, err)
		}
		s := string(buf[:l])
		if i > 0 && s <= strs[i-1] {
			return nil, fmt.Errorf("vindex: values not strictly ascending at %d", i)
		}
		strs = append(strs, s)
	}
	strOff := []uint32{0}
	if numValues > 0 {
		var err error
		if strOff, err = readUint32Chunked(r, int(numValues)+1); err != nil {
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
	strPre, err := readInt32Chunked(r, int(numKeyed))
	if err != nil {
		return nil, fmt.Errorf("vindex: read node lists: %w", err)
	}
	overflow, err := readInt32Chunked(r, int(numOverflow))
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
	return newIndex(strs, strOff, strPre, overflow, n), nil
}

// readInt32Chunked reads n little-endian int32s in bounded chunks so a
// forged length on a truncated stream errors out after one chunk's
// allocation.
func readInt32Chunked(r io.Reader, n int) ([]int32, error) {
	const chunk = 1 << 20
	col := make([]int32, 0, min(n, chunk))
	for remaining := n; remaining > 0; {
		c := min(remaining, chunk)
		part := make([]int32, c)
		if err := binary.Read(r, binary.LittleEndian, part); err != nil {
			return nil, err
		}
		col = append(col, part...)
		remaining -= c
	}
	return col, nil
}

// readUint32Chunked is readInt32Chunked for uint32 columns.
func readUint32Chunked(r io.Reader, n int) ([]uint32, error) {
	const chunk = 1 << 20
	col := make([]uint32, 0, min(n, chunk))
	for remaining := n; remaining > 0; {
		c := min(remaining, chunk)
		part := make([]uint32, c)
		if err := binary.Read(r, binary.LittleEndian, part); err != nil {
			return nil, err
		}
		col = append(col, part...)
		remaining -= c
	}
	return col, nil
}
