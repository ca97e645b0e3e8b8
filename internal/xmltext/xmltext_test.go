package xmltext

import (
	"encoding/xml"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestNamesMatchEncodingXML: the name tables are the ones encoding/xml
// keeps private. Every code point of the basic plane (neither table
// reaches beyond it) and a few above, as the first and as a later
// character of an element name, must get the same verdict.
func TestNamesMatchEncodingXML(t *testing.T) {
	accepts := func(name string) bool {
		_, err := xml.NewDecoder(strings.NewReader("<" + name + "/>")).Token()
		return err == nil
	}
	for r := rune(1); r <= 0x10FFFF; r++ {
		if r == 0x10000 {
			r = 0x10FF00 // the supplementary planes hold no name characters
		}
		if !utf8.ValidRune(r) || strings.ContainsRune(" \t\r\n/>!", r) {
			continue // they end the name in the decoder, whatever follows
		}
		for _, name := range []string{string(r), "a" + string(r)} {
			if got, want := IsName([]byte(name)), accepts(name); got != want {
				t.Fatalf("IsName(%q) = %v, encoding/xml says %v", name, got, want)
			}
		}
	}
	for _, bad := range []string{"", "\xff", "a\xc3", "a\xed\xa0\x80"} {
		if IsName([]byte(bad)) {
			t.Errorf("IsName(%q) = true", bad)
		}
	}
}

// TestCharsAndDeclsMatchEncodingXML: a character is a Char and a
// declaration acceptable exactly when the decoder reads on past it.
func TestCharsAndDeclsMatchEncodingXML(t *testing.T) {
	accepts := func(doc string) bool {
		d := xml.NewDecoder(strings.NewReader(doc))
		for {
			if _, err := d.Token(); err != nil {
				return err.Error() == "EOF"
			}
		}
	}
	for _, r := range []rune{0, 1, 8, 9, 10, 11, 12, 13, 14, 31, 32, 0x7f, 0x80, 0xd7ff, 0xd800, 0xdfff, 0xe000,
		0xfffd, 0xfffe, 0xffff, 0x10000, 0x10ffff, 0x110000, -1} {
		want := utf8.ValidRune(r) && r != '<' && accepts("<a>"+string(r)+"</a>")
		if r >= 0xd800 && r <= 0xdfff || !utf8.ValidRune(r) {
			want = false
		}
		if got := IsChar(r); got != want {
			t.Errorf("IsChar(%U) = %v, want %v", r, got, want)
		}
	}
	for _, body := range []string{"", `version="1.0"`, `version='1.1'`, `version="1.0" encoding="UTF-8"`, `encoding='utf-8'`,
		`encoding="latin1"`, `aversion="3" version=1 version='1.0'`, `version=`, `version="`, `version="1.0`, `x version=1.0 encoding=x`,
		`encoding=utf-8 encoding='ascii'`, `version="" encoding=""`} {
		if got, want := CheckDecl(body) == nil, accepts("<?xml "+body+"?><a/>"); got != want {
			t.Errorf("CheckDecl(%q) ok = %v, encoding/xml ok = %v", body, got, want)
		}
	}
}

// TestEscapeTextMatchesEncodingXML, invalid bytes and non-characters
// included.
func TestEscapeTextMatchesEncodingXML(t *testing.T) {
	var all strings.Builder
	for r := rune(0); r < 0x300; r++ {
		all.WriteRune(r)
	}
	for _, s := range []string{"", "plain", `<a b="c" d='e'>&amp;</a>`, "\t\n\r\x00\x1f\x7f", "bad \xff\xc3 utf-8 \xed\xa0\x80",
		"\ud7ff\ue000\ufffd\ufffe\uffff\U00010000\U0010ffff", all.String()} {
		var got, want strings.Builder
		if err := EscapeText(&got, s); err != nil {
			t.Fatal(err)
		}
		if err := xml.EscapeText(&want, []byte(s)); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("EscapeText(%q) = %q, xml.EscapeText gives %q", s, got.String(), want.String())
		}
	}
}
