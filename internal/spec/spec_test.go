package spec

import (
	"slices"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/doc"
	"staircase/internal/xpath"
)

// The reference on the paper's running example (Figures 1 and 2),
// a(b(c), d, e(f(g, h), i(j))): tags a..j are pre ranks 0..9, and the
// expected sets are read off the figures.
func TestOnFigure1(t *testing.T) {
	d, err := doc.ShredString(`<a><b><c/></b><d/><e><f><g/><h/></f><i><j/></i></e></a>`)
	if err != nil {
		t.Fatal(err)
	}
	pres := func(tags string) []int32 {
		var out []int32
		for _, r := range tags {
			out = append(out, int32(r-'a'))
		}
		return out
	}
	for _, c := range []struct {
		a       axis.Axis
		context string
		want    string
	}{
		{axis.Descendant, "e", "fghij"},
		{axis.Ancestor, "h", "aef"},
		{axis.Following, "f", "ij"},
		{axis.Preceding, "f", "bcd"},
		{axis.Ancestor, "dh", "aef"},   // duplicates merged
		{axis.Descendant, "bf", "cgh"}, // two staircase partitions
	} {
		if got := Join(d, c.a, pres(c.context)); !slices.Equal(got, pres(c.want)) {
			t.Errorf("%v of (%s) = %v, want %s", c.a, c.context, got, c.want)
		}
	}
	for q, want := range map[string]string{
		"/descendant::*[2]":               "b",    // one context, the document node
		"//e/descendant::*[2]":            "g",    // positions in document order
		"//h/ancestor::*[1]":              "f",    // reverse axis: nearest first
		"//*[child::g or child::j]":       "fi",   // predicates applied literally
		"//*[not(descendant::*)][last()]": "cdhj", // last leaf child per parent
		"/a/b | //j | /a/e/child::node()": "bfij", // union in document order
	} {
		pq, err := xpath.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := EvalQuery(d, pq, []int32{d.Root()}); !slices.Equal(got, pres(want)) {
			t.Errorf("%s = %v, want %s", q, got, want)
		}
	}
}
