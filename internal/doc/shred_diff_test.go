package doc

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// docSep splits a fuzz input into the documents of a collection.
const docSep = "\x00\x00"

// shredDiffSeeds is the seed corpus of FuzzShredDiff: every construct
// the scanner knows, in the forms encoding/xml takes and the forms it
// refuses.
var shredDiffSeeds = []string{
	// Entities and character references, with long ones for the window edge.
	`<a>&lt;&gt;&amp;&apos;&quot;</a>`,
	`<a b="&lt;&#65;&#x41;&#x10FFFF;&#0000000000000000000000000000000000000065;">&#9;&#10;&#13;&#xD800;</a>`,
	`<a>&#0;</a>`, `<a>&#xFFFE;</a>`, `<a>&#x110000;</a>`, `<a>&#12;</a>`, `<a>&#;</a>`, `<a>&#x;</a>`, `<a>&#65</a>`,
	`<a>&nbsp;</a>`, `<a>&lt</a>`, `<a>&;</a>`, `<a>& b</a>`, `<a>&amp</a>`, `<a b="&lt"/>`, `<a>&ltx;</a>`,
	// CDATA beside text, ]]> in text and in values, \r\n.
	`<a>x<![CDATA[<&>]]>y<![CDATA[]]></a>`, `<a>x <![CDATA[ ]]> y</a>`, `<a><![CDATA[ ]]></a>`,
	`<![CDATA[]]><a/>`, `<a>]]></a>`, `<a>]]&gt;]]<![CDATA[]]>></a>`, `<a b="]]>"/>`, `<a><![CDATA[x]]]]><![CDATA[>]]></a>`,
	"<a b='1\r\n2\r3\n4'>x\r\ny\rz\n\r\n&#13;\n</a>", "<a><![CDATA[\r\n\r]]></a>", `<a><![CDATA[x]]`, `<a><![CDAT[x]]></a>`,
	// Comments, PIs, declarations, directives, before and after the root.
	"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- c --><?pi d?><a/><!-- d --><?pj?>\n",
	`<?xml version="1.1"?><a/>`, `<?xml encoding='latin1'?><a/>`, `<?xml version='1.0' encoding="utf-8"?><a/>`,
	`<a><?xml version="2"?></a>`, `<?xml?><a/>`, `<?xml aversion="3" version=1 version='1.0'?><a/>`,
	`<a><!----><!-- - --><?p?><?p  q ?><?a:b:c d?></a>`, `<a><!-- -- --></a>`, `<a><!---></a>`, `<a><!- x --></a>`,
	`<a><?p q></a>`, `<a><? p?></a>`, `<a><?-p?></a>`,
	"<!DOCTYPE a [<!ENTITY e \"<x>'\"> <!-- > --> <!ELEMENT a (#PCDATA)>]><a/>",
	`<!DOCTYPE a SYSTEM "a.dtd"><a/>`, `<!><a/>`, `<!>><a/>`, `<!DOCTYPE a [<!-- x ]><a/>`, `<!D '>' "<" <b <!- > > ><a/>`,
	// Names: prefixes, colons, non-ASCII, invalid starts.
	`<p:a xmlns:p="u" p:b="1" xmlns="v" q:xmlns="w" xmlns:q="x"><p:c/></p:a>`, `<a:b></c:b>`, `<a:b></b>`, `<b></a:b>`,
	`<a:b:c/>`, `<:a/>`, `<a:/>`, `<a :b="1" c:="2"/>`, `<a b:c:d="1"/>`, `<::/>`, `<a xmlns:="u" :xmlns="v"/>`,
	`<é ü="1">ö</é>`, `<aé·/>`, `<·a/>`, `<á/>`, "<a\xff/>", `<1a/>`, `<-a/>`, `<.a/>`, `<a.-1/>`, `< a/>`, `<a/ >`,
	`<a xmlns:p="xmlns" p:b="1"/>`,
	// Attribute quoting and spacing.
	`<a b="1"c='2'  d = "3"/>`, `<a b=1/>`, `<a b/>`, `<a b=/>`, `<a b="<"/>`, `<a b="1/>`, `<a b='"' c="'"/>`, `<a b="1" b="2"/>`,
	// Whitespace-only text, in and outside the root.
	" \n<a> <b>\t</b> \n x \n</a>\n ", "<a>\u00a0\u2003</a>", "<a>\u0085</a>", "\ufeff<a/>", "x<a/>", "<a/>x",
	// Characters.
	"<a>\x01</a>", "<a>\x7f\u0080\ud7ff\ue000\ufffd\U00010000\U0010ffff</a>", "<a>\uffff</a>", "<a>\xc3</a>", "<a>\xc3<b/></a>",
	"<a b='\xed\xa0\x80'/>", "<a><!--\xff\x00--><?p \xff\x01?></a>", "<a>\xf0\x9f\x98</a>", "<a>\t\n\v</a>",
	// Structure: truncation, mismatch, several roots.
	`<a><b></a></b>`, `<a>`, `<a`, `<a b`, `<a b=`, `<a b="`, `</a>`, `<a></a></a>`, `<a/><b/>`, `<a></b>`, `<`, `<a><`, `<a></`,
	`<a></a`, `<a/`, `<a>x`, ``, ` `, `<a><b/><c>d</c>e<f g="h">i</f></a>`,
	// Collections.
	`<a>1</a>` + docSep + `<?p q?><b x="y"/><!-- c -->` + docSep + ` <c/> `, `<a/>` + docSep + `<b>`, docSep, `x` + docSep + `<a/>`,
}

// shredVariant is one way of running the scanner over the same input.
type shredVariant struct {
	name   string
	window int
	reader func(io.Reader) io.Reader
}

// Every token boundary should be crossed somewhere: a window refilled
// a byte at a time, and one so small that names and references outgrow it.
var shredVariants = []shredVariant{
	{"whole", 1 << 16, func(r io.Reader) io.Reader { return r }},
	{"byte-at-a-time", 1 << 16, iotest.OneByteReader},
	{"window-of-5", 5, func(r io.Reader) io.Reader { return r }},
}

// DiffShred shreds input (one document, or the docSep-separated
// documents of a collection) with the scanner in every variant and with
// the encoding/xml oracle, and requires them to agree on error versus
// success and on every column, the dictionary and every value. It is
// exported to the package's external tests, which can import the XMark
// generator.
func DiffShred(t testing.TB, input []byte, opts ...ShredOption) {
	t.Helper()
	parts := [][]byte{input}
	collection := bytes.Contains(input, []byte(docSep))
	if collection {
		parts = bytes.Split(input, []byte(docSep))
	}
	readers := func(wrap func(io.Reader) io.Reader) []io.Reader {
		rs := make([]io.Reader, len(parts))
		for i, p := range parts {
			rs[i] = wrap(bytes.NewReader(p))
		}
		return rs
	}
	skip := false
	want, wantErr := shredAll(func(b *Builder, r io.Reader, cfg shredConfig) error {
		quirk, err := refFeed(b, r, cfg)
		skip = skip || quirk
		return err
	}, readers(func(r io.Reader) io.Reader { return r }), collection, opts)
	if skip {
		return
	}
	for _, v := range shredVariants {
		got, err := shredAll(func(b *Builder, r io.Reader, cfg shredConfig) error {
			s := scanner{r: r, b: b, keepSpace: cfg.keepSpace, buf: make([]byte, v.window)}
			return s.run()
		}, readers(v.reader), collection, opts)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: %q: scanner error %v, encoding/xml error %v", v.name, input, err, wantErr)
		}
		if err != nil {
			continue
		}
		if diff := diffDocs(got, want); diff != "" {
			t.Fatalf("%s: %q: scanner and encoding/xml disagree: %s", v.name, input, diff)
		}
	}
}

// diffDocs describes the first difference between two documents.
func diffDocs(got, want *Document) string {
	if got.Size() != want.Size() || got.Height() != want.Height() || got.HasValues() != want.HasValues() {
		return fmt.Sprintf("%d nodes of height %d (values %v), want %d of height %d (values %v)",
			got.Size(), got.Height(), got.HasValues(), want.Size(), want.Height(), want.HasValues())
	}
	if g, w := got.Names().names, want.Names().names; strings.Join(g, "\x00") != strings.Join(w, "\x00") {
		return fmt.Sprintf("dictionary %q, want %q", g, w)
	}
	for v := int32(0); int(v) < want.Size(); v++ {
		if got.Post(v) != want.Post(v) || got.Level(v) != want.Level(v) || got.KindOf(v) != want.KindOf(v) ||
			got.NameID(v) != want.NameID(v) || got.Parent(v) != want.Parent(v) || got.Value(v) != want.Value(v) {
			return fmt.Sprintf("node %d: post %d level %d %v name %d parent %d value %q, want post %d level %d %v name %d parent %d value %q",
				v, got.Post(v), got.Level(v), got.KindOf(v), got.NameID(v), got.Parent(v), got.Value(v),
				want.Post(v), want.Level(v), want.KindOf(v), want.NameID(v), want.Parent(v), want.Value(v))
		}
	}
	return ""
}

// shredModes are the option sets every differential input runs under.
var shredModes = [][]ShredOption{nil, {ShredKeepWhitespace()}, {ShredWithoutValues()}}

func TestShredDiffSeeds(t *testing.T) {
	for _, in := range shredDiffSeeds {
		for _, opts := range shredModes {
			DiffShred(t, []byte(in), opts...)
		}
	}
}

// FuzzShredDiff holds the scanner to its oracle on arbitrary bytes:
// what encoding/xml refuses it refuses, and what encoding/xml shreds it
// shreds to the same document, however the input is cut into reads.
func FuzzShredDiff(f *testing.F) {
	for _, in := range shredDiffSeeds {
		f.Add([]byte(in), uint8(0))
		f.Add([]byte(in), uint8(1))
	}
	f.Fuzz(func(t *testing.T, input []byte, mode uint8) {
		DiffShred(t, input, shredModes[int(mode)%len(shredModes)]...)
	})
}
