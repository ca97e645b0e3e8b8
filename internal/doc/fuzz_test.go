package doc

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// fuzzSeedDocs builds representative documents for the fuzz corpus:
// with and without values, single documents and collections.
func fuzzSeedDocs(f *testing.F) [][]byte {
	f.Helper()
	const xmlA = `<site><people><person id="p0"><profile><education>High School</education>` +
		`<interest category="c1"/></profile></person><person id="p1"/></people>` +
		`<!-- comment --><?pi data?></site>`
	const xmlB = `<a><b><c>text</c></b><b/></a>`
	var seeds [][]byte
	add := func(d *Document) {
		// Seed both format versions: v2 with the index section and the
		// legacy v1 layout, so the fuzzer explores both parse paths.
		var buf bytes.Buffer
		if err := d.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
		var v1 bytes.Buffer
		if err := d.WriteBinaryV1(&v1); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, v1.Bytes())
	}
	da, err := Shred(strings.NewReader(xmlA))
	if err != nil {
		f.Fatal(err)
	}
	add(da)
	db, err := Shred(strings.NewReader(xmlB), shredWithoutValues())
	if err != nil {
		f.Fatal(err)
	}
	add(db)
	dc, err := ShredCollection([]io.Reader{strings.NewReader(xmlA), strings.NewReader(xmlB)})
	if err != nil {
		f.Fatal(err)
	}
	add(dc)
	return seeds
}

// FuzzReadBinary asserts that ReadBinary on arbitrary bytes (either
// format version) either fails with an error or yields a fully valid
// document that round-trips bit-identically through WriteBinary — i.e.
// corrupt input can never produce a document whose accessors panic,
// and the binary format has one canonical v2 encoding per document. A
// v2 input additionally carries an index section, which must agree
// exactly with the kind/name columns to be accepted.
func FuzzReadBinary(f *testing.F) {
	seeds := fuzzSeedDocs(f)
	for _, s := range seeds {
		f.Add(s)
		// Truncations and single-byte corruptions of valid encodings
		// steer the fuzzer toward the interesting failure surface.
		f.Add(s[:len(s)/2])
		if len(s) > 40 {
			mut := bytes.Clone(s)
			mut[24] ^= 0xff
			f.Add(mut)
		}
		// The index and value-index sections sit at the tail of v2
		// encodings: seed truncations and flips landing inside them
		// (value-bearing v2 seeds carry both sections).
		if len(s) > 40 {
			f.Add(s[:len(s)-7])
			mut := bytes.Clone(s)
			mut[len(s)-9] ^= 0xff
			f.Add(mut)
			mut2 := bytes.Clone(s)
			mut2[len(s)-2] ^= 0x01
			f.Add(mut2)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		// Accepted documents must be internally consistent...
		if err := d.Validate(); err != nil {
			t.Fatalf("ReadBinary accepted an invalid document: %v", err)
		}
		// ...and every accessor that indexes by column value must be
		// exercisable without panicking.
		for v := int32(0); int(v) < d.Size(); v++ {
			_ = d.Name(v)
			_ = d.Value(v)
			_ = d.KindOf(v)
			_ = d.SubtreeSize(v)
		}
		// Round-trip: write and re-read, byte-identical encoding.
		var buf bytes.Buffer
		if err := d.WriteBinary(&buf); err != nil {
			t.Fatalf("WriteBinary of accepted document: %v", err)
		}
		d2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written document: %v", err)
		}
		var buf2 bytes.Buffer
		if err := d2.WriteBinary(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("round-trip changed the encoding")
		}
	})
}
