// Package index implements the persistent per-document tag/kind node
// index: for every interned element name, and for every non-element
// node kind, the pre-sorted list of preorder ranks carrying it.
//
// This is the paper's §4.4/§6 observation promoted to a first-class
// storage structure: the name-test pushdown rewrite
//
//	nametest(staircasejoin(doc, cs), n) -> staircasejoin(nametest(doc, n), cs)
//
// only pays off if nametest(doc, n) — the tag's node list — is already
// materialised. The engine used to rebuild each list with an O(n) scan
// of the name column per Engine instance; the Index is built exactly
// once per document (a single O(n) pass at shred/load time), is
// immutable afterwards, and is shared lock-free by every engine over
// the document. Since node lists keep their pre/post coordinates, every
// staircase join property (pruning, skipping, duplicate freedom) holds
// on them unchanged.
//
// Each list additionally records its cardinality and pre span
// (first/last rank) so the pushdown cost model reads exact numbers
// instead of estimating — the "fragment statistics" a relational
// optimizer would keep in its catalog.
//
// The Index is doc-agnostic on purpose: it is built from the raw kind
// and name columns, so internal/doc can embed and persist it (the SCJ2
// index section, see WriteSection) without an import cycle.
package index

import (
	"fmt"
	"io"

	"staircase/internal/colio"
)

// Index holds one pre-sorted node list per element tag and per
// non-element node kind. Immutable after Build/ReadSection; safe for
// concurrent readers.
type Index struct {
	tags  [][]int32 // by interned name id; element nodes only
	kinds [][]int32 // by kind value; the element kind's slot stays empty
	elem  uint8     // kind value of element nodes
	nodes int       // document size the index was built for
}

// Build constructs the index in one pass over the kind and name
// columns. numNames is the dictionary size, numKinds the number of
// kind values (all in [0, numKinds)), elem the kind value of element
// nodes — elements are indexed by tag, every other kind by its kind
// value. Entries are appended in pre order, so every list is sorted by
// construction.
func Build[K ~uint8](kinds []K, names []int32, numNames, numKinds int, elem K) *Index {
	ix := &Index{
		tags:  make([][]int32, numNames),
		kinds: make([][]int32, numKinds),
		elem:  uint8(elem),
		nodes: len(kinds),
	}
	// Counting pass: exact list sizes, so the fill pass allocates one
	// backing array per list with no append growth.
	tagCount := make([]int32, numNames)
	kindCount := make([]int32, numKinds)
	for v, k := range kinds {
		if k == elem {
			if id := names[v]; id >= 0 && int(id) < numNames {
				tagCount[id]++
			}
			continue
		}
		if int(k) < numKinds {
			kindCount[k]++
		}
	}
	for id, c := range tagCount {
		ix.tags[id] = make([]int32, 0, c)
	}
	for k, c := range kindCount {
		if c > 0 {
			ix.kinds[k] = make([]int32, 0, c)
		}
	}
	for v, k := range kinds {
		if k == elem {
			if id := names[v]; id >= 0 && int(id) < numNames {
				ix.tags[id] = append(ix.tags[id], int32(v))
			}
			continue
		}
		if int(k) < numKinds {
			ix.kinds[k] = append(ix.kinds[k], int32(v))
		}
	}
	return ix
}

// NumTags returns the number of tag lists (the dictionary size at
// build time).
func (ix *Index) NumTags() int { return len(ix.tags) }

// NumKinds returns the number of kind slots.
func (ix *Index) NumKinds() int { return len(ix.kinds) }

// Nodes returns the size of the document the index was built for.
func (ix *Index) Nodes() int { return ix.nodes }

// Tag returns the pre-sorted element node list of the given name id
// (nil for out-of-range ids and absent tags). Callers must not modify
// the returned slice.
func (ix *Index) Tag(id int32) []int32 {
	if id < 0 || int(id) >= len(ix.tags) {
		return nil
	}
	return ix.tags[id]
}

// TagCount returns the number of elements carrying the name id — the
// exact fragment cardinality the pushdown cost model needs.
func (ix *Index) TagCount(id int32) int { return len(ix.Tag(id)) }

// KindList returns the pre-sorted node list of a non-element kind
// value (nil for out-of-range kinds and for the element kind itself).
// Callers must not modify the returned slice.
func (ix *Index) KindList(k uint8) []int32 {
	if int(k) >= len(ix.kinds) {
		return nil
	}
	return ix.kinds[k]
}

// KindCount returns the number of nodes of a non-element kind.
func (ix *Index) KindCount(k uint8) int { return len(ix.KindList(k)) }

// Span returns the pre span [min, max] of a node list and whether the
// list is non-empty. Lists are sorted, so the span is the first and
// last entry.
func Span(list []int32) (min, max int32, ok bool) {
	if len(list) == 0 {
		return 0, -1, false
	}
	return list[0], list[len(list)-1], true
}

// Bytes returns the in-memory footprint of the index: 4 bytes per
// entry plus a slice header per list. This is the quantity the catalog
// charges against its residency budget.
func (ix *Index) Bytes() int64 {
	const sliceHeader = 24
	total := int64(len(ix.tags)+len(ix.kinds)) * sliceHeader
	for _, l := range ix.tags {
		total += 4 * int64(len(l))
	}
	for _, l := range ix.kinds {
		total += 4 * int64(len(l))
	}
	return total
}

// Entries returns the total number of indexed nodes across all lists.
// For an index over a full document this equals the node count: every
// node is an element (one tag list) or a non-element (one kind list).
func (ix *Index) Entries() int64 {
	var total int64
	for _, l := range ix.tags {
		total += int64(len(l))
	}
	for _, l := range ix.kinds {
		total += int64(len(l))
	}
	return total
}

// --- persistence (the SCJ2 index section) ----------------------------------
//
// Layout (little endian), written after the document payload:
//
//	numTags u32 | numKinds u32 | elemKind u8
//	then per list, tags in name-id order followed by kinds in kind order:
//	  count u32 | minPre i32 | maxPre i32 | entries [count]i32
//
// The encoding is canonical: lists are strictly ascending, min/max are
// the first/last entry (0/-1 for empty lists), and the total entry
// count equals the node count. ReadSection rejects anything else, so a
// corrupt index section can never silently change query results — and
// writing a freshly read index reproduces the input bytes exactly.

// WriteSection serializes the index.
func (ix *Index) WriteSection(w io.Writer) error {
	bw := colio.Writer(w)
	err := colio.WriteUint32(bw, uint32(len(ix.tags)), uint32(len(ix.kinds)))
	if err == nil {
		err = bw.WriteByte(ix.elem)
	}
	for _, lists := range [][][]int32{ix.tags, ix.kinds} {
		for _, list := range lists {
			min, max, _ := Span(list)
			if err == nil {
				err = colio.WriteUint32(bw, uint32(len(list)), uint32(min), uint32(max))
			}
			if err == nil {
				err = colio.WriteWords(bw, list)
			}
		}
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSection deserializes and validates an index section for a
// document of n nodes with numNames dictionary entries, numKinds kind
// values and element kind elem (the stored shape must match the
// caller's expectation exactly). Corrupt input of any shape (bad
// lengths, unsorted lists, out-of-range ranks, span mismatches,
// truncation) yields an error, never a panic or an unbounded
// allocation. When r is a bufio.Reader of at least colio.BufSize it is
// read in place, consuming the section and no more.
func ReadSection(r io.Reader, n, numNames, numKinds int, elem uint8) (*Index, error) {
	br := colio.Reader(r)
	numTags, err := colio.ReadUint32(br)
	if err != nil {
		return nil, fmt.Errorf("index: read section header: %w", err)
	}
	nk, err := colio.ReadUint32(br)
	if err != nil {
		return nil, fmt.Errorf("index: read section header: %w", err)
	}
	if int(numTags) != numNames {
		return nil, fmt.Errorf("index: section has %d tag lists, dictionary has %d names", numTags, numNames)
	}
	if int(nk) != numKinds {
		return nil, fmt.Errorf("index: section has %d kind lists, want %d", nk, numKinds)
	}
	stored, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("index: read element kind: %w", err)
	}
	if stored != elem {
		return nil, fmt.Errorf("index: section element kind %d, want %d", stored, elem)
	}
	ix := &Index{
		tags:  make([][]int32, numNames),
		kinds: make([][]int32, numKinds),
		elem:  elem,
		nodes: n,
	}
	var total int64
	readList := func(what string) ([]int32, error) {
		hdr, err := colio.ReadWords[uint32](br, 3) // count, min, max
		if err != nil {
			return nil, fmt.Errorf("index: read %s header: %w", what, err)
		}
		count, min, max := hdr[0], int32(hdr[1]), int32(hdr[2])
		if int64(count) > int64(n) {
			return nil, fmt.Errorf("index: %s has %d entries, document has %d nodes", what, count, n)
		}
		list, err := colio.ReadWords[int32](br, int(count))
		if err != nil {
			return nil, fmt.Errorf("index: read %s entries: %w", what, err)
		}
		prev := int32(-1)
		for _, v := range list {
			if v <= prev || int(v) >= n {
				return nil, fmt.Errorf("index: %s not strictly ascending within [0,%d)", what, n)
			}
			prev = v
		}
		wantMin, wantMax, _ := Span(list)
		if min != wantMin || max != wantMax {
			return nil, fmt.Errorf("index: %s span [%d,%d] does not match entries [%d,%d]",
				what, min, max, wantMin, wantMax)
		}
		total += int64(count)
		if total > int64(n) {
			return nil, fmt.Errorf("index: lists index %d entries, document has %d nodes", total, n)
		}
		return list, nil
	}
	for id := range ix.tags {
		l, err := readList(fmt.Sprintf("tag list %d", id))
		if err != nil {
			return nil, err
		}
		ix.tags[id] = l
	}
	for k := range ix.kinds {
		l, err := readList(fmt.Sprintf("kind list %d", k))
		if err != nil {
			return nil, err
		}
		if k == int(ix.elem) && len(l) > 0 {
			return nil, fmt.Errorf("index: element kind %d has a kind list (elements are indexed by tag)", k)
		}
		ix.kinds[k] = l
	}
	if total != int64(n) {
		return nil, fmt.Errorf("index: lists index %d entries, document has %d nodes", total, n)
	}
	return ix, nil
}
