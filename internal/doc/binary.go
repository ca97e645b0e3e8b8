package doc

import (
	"fmt"
	"io"
	"strings"

	"staircase/internal/colio"
	"staircase/internal/fault"
	"staircase/internal/index"
	"staircase/internal/vindex"
)

// Binary persistence of the pre/post encoding. Shredding a large
// document is a parse-bound operation; the encoded columns themselves
// are compact (the paper, §4.1: "a document occupies only about 1.5×
// its size in Monet using our storage structure" — the void pre column
// costs nothing, post/level/parent are plain integer arrays). WriteBinary
// and ReadBinary store exactly those columns so a document loads back
// with a handful of bulk reads.
//
// Layout (little endian):
//
//	magic "SCJ2" | flags u32 | n u32 | height i32
//	post  [n]i32 | level [n]i32 | parent [n]i32 | kind [n]u8 | name [n]i32
//	dict: count u32, then per name: len u32 + bytes
//	values (flag bit 0): per node: len u32 + bytes
//	index (flag bit 1): the tag/kind node index, see index.WriteSection
//	value index (flag bit 2): the value index, see vindex.WriteSection
//
// Version 2 adds the optional index section: the per-tag and per-kind
// node lists of internal/index, persisted so a document loads with its
// name-test pushdown fragments ready — no O(n) rebuild scan. Version 1
// ("SCJ1") files are identical up to the dictionary/values sections
// and still load; their index is built in memory on first use.
// WriteBinary always writes the current version; WriteBinaryV1 keeps
// the ability to produce v1 files for compatibility tests and older
// readers.
//
// Value-bearing v2 documents additionally carry the value index
// section (flag bit 2, after the index section), so comparison and
// contains() predicates load with their value fragments ready. Files
// without it — including every file an older writer produced — still
// load; their value index is built in memory on first use.
const (
	binaryMagicV1 = "SCJ1"
	binaryMagicV2 = "SCJ2"
)

const (
	flagHasValues = 1 << 0
	flagHasIndex  = 1 << 1 // v2 only
	flagHasVIndex = 1 << 2 // v2 only, requires flagHasValues
)

// WriteBinary serializes the encoded document in the current (SCJ2)
// format, including the tag/kind index section (building the index
// first if the document does not have one yet).
func (d *Document) WriteBinary(w io.Writer) error {
	return d.writeBinary(w, 2)
}

// WriteBinaryV1 serializes the document in the legacy SCJ1 format,
// without an index section.
func (d *Document) WriteBinaryV1(w io.Writer) error {
	return d.writeBinary(w, 1)
}

func (d *Document) writeBinary(w io.Writer, version int) error {
	bw := colio.Writer(w)
	magic := binaryMagicV1
	if version == 2 {
		magic = binaryMagicV2
	}
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var flags uint32
	if d.valOff != nil {
		flags |= flagHasValues
	}
	if version == 2 {
		flags |= flagHasIndex
		if d.valOff != nil {
			flags |= flagHasVIndex
		}
	}
	err := colio.WriteUint32(bw, flags, uint32(len(d.post)), uint32(d.height))
	for _, col := range [][]int32{d.post, d.level, d.parent} {
		if err == nil {
			err = colio.WriteWords(bw, col)
		}
	}
	if err == nil {
		err = colio.WriteBytes(bw, d.kind)
	}
	if err == nil {
		err = colio.WriteWords(bw, d.name)
	}
	// Dictionary.
	if err == nil {
		err = colio.WriteUint32(bw, uint32(d.names.Len()))
	}
	for id := 0; id < d.names.Len() && err == nil; id++ {
		err = colio.WriteRecord(bw, d.names.Name(int32(id)))
	}
	if d.valOff != nil {
		for pre := 0; pre < len(d.post) && err == nil; pre++ {
			err = colio.WriteRecord(bw, d.Value(int32(pre)))
		}
	}
	if err == nil && flags&flagHasIndex != 0 {
		err = d.TagIndex().WriteSection(bw)
	}
	if err == nil && flags&flagHasVIndex != 0 {
		err = d.ValueIndex().WriteSection(bw)
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// maxRecord caps one dictionary name or node value of a file.
const maxRecord = 1 << 28

// ReadBinary deserializes a document written by WriteBinary (either
// format version, sniffed from the magic bytes) and validates the
// encoding before returning it. The columns are decoded from the read
// window straight into their slices and the value records streamed
// into the document's one text arena (Value returns substrings of it).
// Corrupt or truncated input of any shape yields an error, never a
// panic or an unbounded allocation: column and string reads grow only
// as the stream delivers (internal/colio), the name
// dictionary must be duplicate-free and no larger than the node count,
// Validate rejects any encoding (ranks, levels, kinds, name ids,
// height) that the accessors could not serve safely, and a v2 index
// section must agree exactly with the kind/name columns — a corrupt
// index can never silently change query results.
func ReadBinary(r io.Reader) (*Document, error) {
	br := colio.Reader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("doc: read magic: %w", err)
	}
	var version int
	switch string(magic) {
	case binaryMagicV1:
		version = 1
	case binaryMagicV2:
		version = 2
	default:
		return nil, fmt.Errorf("doc: bad magic %q", magic)
	}
	hdr, err := colio.ReadWords[uint32](br, 3) // flags, n, height
	if err != nil {
		return nil, err
	}
	flags, n := hdr[0], hdr[1]
	known := uint32(flagHasValues)
	if version == 2 {
		known |= flagHasIndex | flagHasVIndex
	}
	if flags&^known != 0 {
		return nil, fmt.Errorf("doc: unknown flags %#x", flags)
	}
	if flags&flagHasVIndex != 0 && flags&flagHasValues == 0 {
		return nil, fmt.Errorf("doc: value index section without node values")
	}
	if n == 0 || n > 1<<30 {
		return nil, fmt.Errorf("doc: unreasonable node count %d", n)
	}
	d := &Document{names: NewDict(), height: int32(hdr[2])}
	for _, col := range []*[]int32{&d.post, &d.level, &d.parent} {
		if *col, err = colio.ReadWords[int32](br, int(n)); err != nil {
			return nil, err
		}
	}
	if d.kind, err = colio.ReadBytes[Kind](br, int(n)); err != nil {
		return nil, err
	}
	if d.name, err = colio.ReadWords[int32](br, int(n)); err != nil {
		return nil, err
	}
	dictLen, err := colio.ReadUint32(br)
	if err != nil {
		return nil, err
	}
	if dictLen > n {
		return nil, fmt.Errorf("doc: dictionary of %d names exceeds node count %d", dictLen, n)
	}
	var rec []byte
	for i := uint32(0); i < dictLen; i++ {
		if rec, err = colio.AppendRecord(br, rec[:0], maxRecord); err != nil {
			return nil, fmt.Errorf("doc: dictionary: %w", err)
		}
		if d.names.internBytes(rec) != int32(i) {
			return nil, fmt.Errorf("doc: duplicate dictionary entry %q", rec)
		}
	}
	if flags&flagHasValues != 0 {
		// The five columns above prove the stream held n nodes, so the
		// offsets may be allocated whole; the arena grows as records arrive.
		var text []byte
		if d.valOff, text, err = colio.ReadRecords(br, int(n), maxRecord); err != nil {
			return nil, fmt.Errorf("doc: node values: %w", err)
		}
		d.valText = string(text)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("doc: corrupt binary document: %w", err)
	}
	if flags&flagHasIndex != 0 {
		if err := fault.Hit("doc.index.read"); err != nil {
			return nil, err
		}
		ix, err := index.ReadSection(br, int(n), d.names.Len(), NumKinds, uint8(Elem))
		if err != nil {
			return nil, fmt.Errorf("doc: corrupt index section: %w", err)
		}
		if err := d.validateIndex(ix); err != nil {
			return nil, fmt.Errorf("doc: corrupt index section: %w", err)
		}
		d.idx.Store(ix)
	}
	if flags&flagHasVIndex != 0 {
		if err := fault.Hit("doc.vindex.read"); err != nil {
			return nil, err
		}
		vix, err := vindex.ReadSection(br, int(n))
		if err != nil {
			return nil, fmt.Errorf("doc: corrupt value index section: %w", err)
		}
		if err := d.validateValueIndex(vix); err != nil {
			return nil, fmt.Errorf("doc: corrupt value index section: %w", err)
		}
		d.vidx.Store(vix)
	}
	return d, nil
}

// validateIndex checks a deserialized index section against the
// document columns: every tag-list entry must be an element carrying
// that exact name id and every kind-list entry a node of that kind.
// Combined with the structural guarantees of index.ReadSection (strict
// sortedness, in-range ranks, total entries == node count) this pins
// the section to the one canonical index of the document.
func (d *Document) validateIndex(ix *index.Index) error {
	for id := 0; id < ix.NumTags(); id++ {
		for _, v := range ix.Tag(int32(id)) {
			if d.kind[v] != Elem || d.name[v] != int32(id) {
				return fmt.Errorf("index: tag list %d contains node %d (kind %v, name %d)",
					id, v, d.kind[v], d.name[v])
			}
		}
	}
	for k := 0; k < ix.NumKinds(); k++ {
		for _, v := range ix.KindList(uint8(k)) {
			if d.kind[v] != Kind(k) {
				return fmt.Errorf("index: kind list %d contains node %d of kind %v", k, v, d.kind[v])
			}
		}
	}
	return nil
}

// validateValueIndex checks a deserialized value section against the
// document: every keyed node's string value, compared piece by piece in
// place, must equal the key it is listed under, and every overflow
// node's value must actually exceed vindex.MaxKeyLen. Combined with the
// structural guarantees of vindex.ReadSection (sortedness, exact
// partition of [0, n)) this pins the section to the one canonical value
// index of the document — a corrupt section can never silently change
// query results.
func (d *Document) validateValueIndex(ix *vindex.Index) error {
	var bad error
	ix.ForEachString(func(key string, pres []int32) {
		if bad != nil {
			return
		}
		for _, v := range pres {
			rest, ok := key, true
			d.eachText(v, func(t string) bool {
				if ok = strings.HasPrefix(rest, t); ok {
					rest = rest[len(t):]
				}
				return ok
			})
			if !ok || rest != "" {
				bad = fmt.Errorf("vindex: node %d keyed under %q but its string value differs", v, key)
			}
		}
	})
	if bad != nil {
		return bad
	}
	for _, v := range ix.Overflow() {
		if size, _ := d.textLen(v, vindex.MaxKeyLen); size <= vindex.MaxKeyLen {
			return fmt.Errorf("vindex: node %d in overflow but its value fits a key", v)
		}
	}
	return nil
}

// EncodedBytes returns the in-memory footprint of the structural
// encoding in bytes (excluding the node values and the indexes, see
// ValueBytes, IndexBytes and ValueIndexBytes): 13 bytes per node
// (post, level, parent, name id: 4
// each; kind: 1) plus the name dictionary. The pre column is void and
// costs nothing — this is the quantity behind the paper's "1.5×
// document size" storage claim.
func (d *Document) EncodedBytes() int64 {
	n := int64(len(d.post))
	bytes := n * (4 + 4 + 4 + 4 + 1)
	for id := 0; id < d.names.Len(); id++ {
		bytes += int64(len(d.names.Name(int32(id)))) + 4
	}
	return bytes
}
