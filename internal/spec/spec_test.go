package spec

import (
	"math/rand"
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

// randomDoc builds a document of about n events: elements with up to
// two attributes, text, comments and PIs, under one root element or,
// half the time, under a collection's virtual root over several.
func randomDoc(t *testing.T, rng *rand.Rand, n int) *doc.Document {
	t.Helper()
	var b *doc.Builder
	tops := 1
	if rng.Intn(2) == 0 {
		b, tops = doc.NewBuilder(doc.WithVirtualRoot()), 1+rng.Intn(3)
	} else {
		b = doc.NewBuilder()
	}
	tags := []string{"p", "q", "r"}
	for range tops {
		b.OpenElem("top")
		depth := 1
		for range n / tops {
			switch r := rng.Intn(12); {
			case r < 5:
				b.OpenElem(tags[rng.Intn(len(tags))])
				for range rng.Intn(3) {
					b.Attr(tags[rng.Intn(len(tags))], "v")
				}
				depth++
			case r < 8 && depth > 1:
				b.CloseElem()
				depth--
			case r < 10:
				b.Text("t")
			case r < 11:
				b.Comment("c")
			default:
				b.PI("pi", "x")
			}
		}
		for ; depth > 0; depth-- {
			b.CloseElem()
		}
	}
	d, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRegionMatchesJoin: the one-pass regions equal the brute-force
// definition on every axis, for contexts of every density (attribute
// nodes included), the root alone, each single node, the whole
// document, and an unsorted context with duplicates.
func TestRegionMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	kinds := map[doc.Kind]bool{}
	for trial := 0; trial < 40; trial++ {
		d := randomDoc(t, rng, 20+rng.Intn(150))
		n := int32(d.Size())
		for v := range n {
			kinds[d.KindOf(v)] = true
		}
		contexts := [][]int32{nil, {d.Root()}, {n - 1}}
		for _, density := range []float64{0.02, 0.1, 0.4, 1} {
			var c []int32
			for v := range n {
				if rng.Float64() < density {
					c = append(c, v)
				}
			}
			contexts = append(contexts, c)
		}
		shuffled := []int32{int32(rng.Intn(int(n))), int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))}
		contexts = append(contexts, append(shuffled, shuffled[0]))
		for v := range n {
			contexts = append(contexts, []int32{v})
		}
		for _, a := range axis.All() {
			for _, c := range contexts {
				if got, want := Region(d, a, c), Join(d, a, c); !slices.Equal(got, want) {
					t.Fatalf("trial %d: %v of %v\n got %v\nwant %v", trial, a, c, got, want)
				}
			}
		}
	}
	if len(kinds) != int(doc.VRoot)+1 {
		t.Fatalf("the documents hold only the node kinds %v", kinds)
	}
}
