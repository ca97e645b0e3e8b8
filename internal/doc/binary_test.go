package doc

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	inputs := []string{
		figure1XML,
		`<r id="1" x="y"><c a="b">text</c><!--note--><?pi data?></r>`,
	}
	for _, in := range inputs {
		d1, err := ShredString(in)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d1.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		d2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if d1.Size() != d2.Size() || d1.Height() != d2.Height() {
			t.Fatalf("size/height mismatch for %q", in)
		}
		for v := int32(0); int(v) < d1.Size(); v++ {
			if d1.Post(v) != d2.Post(v) || d1.Level(v) != d2.Level(v) ||
				d1.KindOf(v) != d2.KindOf(v) || d1.Name(v) != d2.Name(v) ||
				d1.Parent(v) != d2.Parent(v) || d1.Value(v) != d2.Value(v) {
				t.Fatalf("node %d differs for %q", v, in)
			}
		}
	}
}

func TestBinaryRoundTripWithoutValues(t *testing.T) {
	b := NewBuilder(WithoutValues())
	b.OpenElem("a")
	b.Text("dropped")
	b.CloseElem()
	d1, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d1.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.HasValues() {
		t.Fatal("values flag should not survive")
	}
}

func TestBinaryRoundTripRandomDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 10; trial++ {
		d1 := genRandomDoc(rng, 300)
		var buf bytes.Buffer
		if err := d1.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		d2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for v := int32(0); int(v) < d1.Size(); v++ {
			if d1.Post(v) != d2.Post(v) || d1.Name(v) != d2.Name(v) {
				t.Fatalf("trial %d node %d differs", trial, v)
			}
		}
	}
}

func TestBinaryV1StillLoads(t *testing.T) {
	d1, err := ShredString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d1.WriteBinaryV1(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[:4]; string(got) != "SCJ1" {
		t.Fatalf("v1 magic = %q", got)
	}
	d2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.IndexBuilt() {
		t.Fatal("v1 file must not arrive with a persisted index")
	}
	// The index builds lazily and matches the v2-persisted one.
	ix := d2.TagIndex()
	if !d2.IndexBuilt() || ix.Entries() != int64(d2.Size()) {
		t.Fatalf("lazy index covers %d of %d nodes", ix.Entries(), d2.Size())
	}
	for v := int32(0); int(v) < d1.Size(); v++ {
		if d1.Post(v) != d2.Post(v) || d1.Name(v) != d2.Name(v) || d1.Value(v) != d2.Value(v) {
			t.Fatalf("node %d differs after v1 round trip", v)
		}
	}
}

func TestBinaryV2CarriesIndex(t *testing.T) {
	d1, err := ShredString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d1.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[:4]; string(got) != "SCJ2" {
		t.Fatalf("v2 magic = %q", got)
	}
	d2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !d2.IndexBuilt() {
		t.Fatal("v2 file must arrive with the index attached")
	}
	want, got := d1.TagIndex(), d2.TagIndex()
	if want.NumTags() != got.NumTags() || want.Entries() != got.Entries() {
		t.Fatalf("persisted index shape differs: %d/%d tags, %d/%d entries",
			got.NumTags(), want.NumTags(), got.Entries(), want.Entries())
	}
	for id := 0; id < want.NumTags(); id++ {
		w, g := want.Tag(int32(id)), got.Tag(int32(id))
		if len(w) != len(g) {
			t.Fatalf("tag %d: %d vs %d entries", id, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("tag %d entry %d differs", id, i)
			}
		}
	}
	if d2.IndexBytes() == 0 {
		t.Fatal("IndexBytes of a loaded v2 document must be non-zero")
	}
}

func TestBinaryV2CarriesValueIndex(t *testing.T) {
	d1, err := ShredString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d1.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if !d1.ValueIndexBuilt() {
		t.Fatal("WriteBinary must build the value index it persists")
	}
	d2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !d2.ValueIndexBuilt() {
		t.Fatal("v2 file of a value-bearing document must arrive with the value index attached")
	}
	want, got := d1.ValueIndex(), d2.ValueIndex()
	if want.Entries() != got.Entries() || want.NumValues() != got.NumValues() {
		t.Fatalf("persisted value index shape differs: %d/%d entries, %d/%d values",
			got.Entries(), want.Entries(), got.NumValues(), want.NumValues())
	}
	if got.Entries() != int64(d2.Size()) {
		t.Fatalf("value index covers %d of %d nodes", got.Entries(), d2.Size())
	}
	if d2.ValueIndexBytes() == 0 {
		t.Fatal("ValueIndexBytes of a loaded v2 document must be non-zero")
	}
	// A v1 file has no section; the value index builds lazily.
	var v1 bytes.Buffer
	if err := d1.WriteBinaryV1(&v1); err != nil {
		t.Fatal(err)
	}
	d3, err := ReadBinary(&v1)
	if err != nil {
		t.Fatal(err)
	}
	if d3.ValueIndexBuilt() {
		t.Fatal("v1 file must not arrive with a value index")
	}
	if ix := d3.ValueIndex(); ix == nil || ix.Entries() != int64(d3.Size()) {
		t.Fatal("lazy value index incomplete")
	}
}

func TestValueIndexNilWithoutValues(t *testing.T) {
	b := NewBuilder(WithoutValues())
	b.OpenElem("a")
	b.Text("dropped")
	b.CloseElem()
	d, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	if d.ValueIndex() != nil {
		t.Fatal("ValueIndex must be nil for documents built without values")
	}
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.ValueIndexBuilt() || d2.ValueIndex() != nil {
		t.Fatal("value-less v2 file must not carry a value index")
	}
}

func TestReadBinaryRejectsCorruptIndexSection(t *testing.T) {
	d, err := ShredString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	var v1, v2 bytes.Buffer
	if err := d.WriteBinaryV1(&v1); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBinary(&v2); err != nil {
		t.Fatal(err)
	}
	// Everything past the shared payload is the index section; corrupt
	// every byte of it in turn. Either the read errors, or (if the flip
	// happens to produce another canonical section — it cannot, but the
	// property we rely on is the error) it must not panic.
	sectionStart := v1.Len() // same payload length up to the section
	raw := v2.Bytes()
	for i := sectionStart; i < len(raw); i++ {
		mut := bytes.Clone(raw)
		mut[i] ^= 0x01
		if _, err := ReadBinary(bytes.NewReader(mut)); err == nil {
			t.Fatalf("corrupt index byte %d accepted", i)
		}
	}
	// Truncations inside the index section must also error.
	for cut := sectionStart; cut < len(raw); cut++ {
		if _, err := ReadBinary(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncated index section at %d accepted", cut)
		}
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("SCJ1"), // truncated header
		append([]byte("SCJ1"), make([]byte, 12)...), // zero nodes
	}
	for i, in := range cases {
		if _, err := ReadBinary(bytes.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadBinaryRejectsCorruptEncoding(t *testing.T) {
	d, err := ShredString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt a post rank inside the column area; Validate must catch it.
	raw[20] ^= 0x55
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected validation error on corrupt post column")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestEncodedBytesStorageClaim(t *testing.T) {
	// §4.1: "a document occupies only about 1.5× its size in Monet".
	// 13 bytes/node of structural encoding vs XML text that typically
	// weighs ≥ 9 bytes per node — sanity-check the accounting.
	d, err := ShredString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	got := d.EncodedBytes()
	want := int64(10*17) + int64(len("abcdefghij")) + 10*4
	if got != want {
		t.Fatalf("EncodedBytes = %d, want %d", got, want)
	}
}

// TestLoadSniffsAndSkipsSections: Load reads XML text and both binary
// versions, reports which it read, and leaves the SCJ2 sections Skip
// names unattached.
func TestLoadSniffsAndSkipsSections(t *testing.T) {
	src := `<r a="1"><x>t</x><x/></r>`
	d, err := ShredString(src)
	if err != nil {
		t.Fatal(err)
	}
	var v1, v2 bytes.Buffer
	if err := d.WriteBinaryV1(&v1); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBinary(&v2); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		in           []byte
		skip         Skip
		binary       bool
		index, value bool
	}{
		{"xml", []byte(src), Skip{}, false, false, false},
		{"scj1", v1.Bytes(), Skip{}, true, false, false},
		{"scj2", v2.Bytes(), Skip{}, true, true, true},
		{"scj2 no index", v2.Bytes(), Skip{Index: true}, true, false, true},
		{"scj2 no value index", v2.Bytes(), Skip{ValueIndex: true}, true, true, false},
		{"scj2 neither", v2.Bytes(), Skip{Index: true, ValueIndex: true}, true, false, false},
	} {
		got, binary, err := Load(bytes.NewReader(tc.in), tc.skip)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if binary != tc.binary || got.IndexBuilt() != tc.index || got.ValueIndexBuilt() != tc.value {
			t.Errorf("%s: binary %v, index %v, value index %v; want %v, %v, %v",
				tc.name, binary, got.IndexBuilt(), got.ValueIndexBuilt(), tc.binary, tc.index, tc.value)
		}
		if got.Size() != d.Size() || got.StringValue(0) != d.StringValue(0) {
			t.Errorf("%s: loaded a different document", tc.name)
		}
	}
}
