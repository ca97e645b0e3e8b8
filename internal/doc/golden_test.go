package doc_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
	"testing"

	"staircase/internal/doc"
	"staircase/internal/xmark"
)

// Multi-kind fixtures: every node kind, entities, CDATA next to text,
// a document without values, a collection under a virtual root.
const (
	goldenA = `<site><people><person id="p0"><profile><education>High School</education>` +
		`<interest category="c1"/></profile></person><person id="p1"/></people>` +
		`<!-- comment --><?pi data?></site>`
	goldenB = `<a><b><c>text</c></b><b/></a>`
	goldenC = `<r id="1" x="y"><c a="b">text &amp; more</c><!--note--><?pi data?><d>x<e/>y<![CDATA[<z>]]></d></r>`
)

// TestBinaryGolden pins the SCJ2 and SCJ1 bytes of fixed documents to
// the SHA-256 the commit before the text arenas, the interning index
// build and the byte scanner produced: the storage may change shape in
// memory, the files may not change at all. Each document must also
// survive write → read → write unchanged.
func TestBinaryGolden(t *testing.T) {
	var xm bytes.Buffer
	if err := xmark.Write(&xm, xmark.Config{SizeMB: 1, Seed: 7, KeepValues: true}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		load   func() (*doc.Document, error)
		v2, v1 string
	}{
		{"xmark-1-7", func() (*doc.Document, error) { return doc.Shred(bytes.NewReader(xm.Bytes())) },
			"0c73386d5162b465815d754f6b2270f4ed732dd8dbf57be6705baaa028c0257e",
			"3024578dd090bfdf182cf2571ef593518037fc59472369722af2fa039a3229f8"},
		{"A", func() (*doc.Document, error) { return doc.ShredString(goldenA) },
			"605bb64ba9d514714d09194c5466149c69cf6e92af687bfde58d6c9b58188987",
			"9517e37eb7ccd95eafc92dbabe61230dd9bef35e027361528831600f2a325fb7"},
		{"B-novalues", func() (*doc.Document, error) { return doc.ShredString(goldenB, doc.ShredWithoutValues()) },
			"da591ff689c03d1cf1cc45184a7f4b4f8f4abd13496504e3bcc575c480c1b862",
			"683ffceebf0b09d72a3fe8b22301cc5425d7859247c99707106eeb2d1ba2c622"},
		{"C-keepspace", func() (*doc.Document, error) { return doc.ShredString(goldenC, doc.ShredKeepWhitespace()) },
			"e1b4c4c840808de32eedcd0e3ed47bfcef892facc67b7b0114ac0d7a24decd6c",
			"2b97c527e1d1ae5ae4abce3fc60f5ef864d6598aafcfdedf1df8942f9ac3af3e"},
		{"collection", func() (*doc.Document, error) {
			return doc.ShredCollection([]io.Reader{
				strings.NewReader(goldenA), strings.NewReader(goldenB), strings.NewReader(goldenC)})
		},
			"3f8986b053806b9148f6da88b5f57484afbf3db0de864c4042754a6eb6f6fcf2",
			"fbd0e288f51ccd830103ee05d40c9aeff0cdbd5fafa5abd67477b0bfea4c5ecd"},
	}
	for _, c := range cases {
		d, err := c.load()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var v2, v1 bytes.Buffer
		if err := d.WriteBinary(&v2); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := d.WriteBinaryV1(&v1); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, f := range []struct {
			version string
			raw     []byte
			want    string
		}{{"SCJ2", v2.Bytes(), c.v2}, {"SCJ1", v1.Bytes(), c.v1}} {
			sum := sha256.Sum256(f.raw)
			if got := hex.EncodeToString(sum[:]); got != f.want {
				t.Errorf("%s: %s bytes changed: sha256 %s, want %s", c.name, f.version, got, f.want)
			}
			back, err := doc.ReadBinary(bytes.NewReader(f.raw))
			if err != nil {
				t.Fatalf("%s: re-read %s: %v", c.name, f.version, err)
			}
			var again bytes.Buffer
			if f.version == "SCJ2" {
				err = back.WriteBinary(&again)
			} else {
				err = back.WriteBinaryV1(&again)
			}
			if err != nil || !bytes.Equal(again.Bytes(), f.raw) {
				t.Errorf("%s: %s write → read → write changed the bytes (err %v)", c.name, f.version, err)
			}
		}
	}
}
