package doc

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// figure1XML is the 10-node document of Figure 1/2 of the paper:
//
//	a(b(c), d, e(f(g,h), i(j)))
//
// with the published encoding
//
//	pre : a0 b1 c2 d3 e4 f5 g6 h7 i8 j9
//	post: c0 b1 d2 g3 h4 f5 j6 i7 e8 a9
const figure1XML = `<a><b><c/></b><d/><e><f><g/><h/></f><i><j/></i></e></a>`

// figure1 returns the shredded paper example.
func figure1(t testing.TB) *Document {
	t.Helper()
	d, err := ShredString(figure1XML)
	if err != nil {
		t.Fatalf("shred figure 1: %v", err)
	}
	return d
}

// preOf resolves a tag of the figure-1 document to its preorder rank.
func preOf(t testing.TB, d *Document, tag string) int32 {
	t.Helper()
	for pre := 0; pre < d.Size(); pre++ {
		if d.Name(int32(pre)) == tag {
			return int32(pre)
		}
	}
	t.Fatalf("tag %q not found", tag)
	return -1
}

func TestFigure1Encoding(t *testing.T) {
	d := figure1(t)
	if d.Size() != 10 {
		t.Fatalf("size = %d, want 10", d.Size())
	}
	wantPost := map[string]int32{
		"a": 9, "b": 1, "c": 0, "d": 2, "e": 8,
		"f": 5, "g": 3, "h": 4, "i": 7, "j": 6,
	}
	wantPre := map[string]int32{
		"a": 0, "b": 1, "c": 2, "d": 3, "e": 4,
		"f": 5, "g": 6, "h": 7, "i": 8, "j": 9,
	}
	for tag, wp := range wantPost {
		pre := preOf(t, d, tag)
		if pre != wantPre[tag] {
			t.Errorf("pre(%s) = %d, want %d", tag, pre, wantPre[tag])
		}
		if got := d.Post(pre); got != wp {
			t.Errorf("post(%s) = %d, want %d", tag, got, wp)
		}
	}
	if d.Height() != 3 {
		t.Errorf("height = %d, want 3", d.Height())
	}
}

func TestFigure1Levels(t *testing.T) {
	d := figure1(t)
	want := map[string]int32{
		"a": 0, "b": 1, "c": 2, "d": 1, "e": 1,
		"f": 2, "g": 3, "h": 3, "i": 2, "j": 3,
	}
	for tag, wl := range want {
		if got := d.Level(preOf(t, d, tag)); got != wl {
			t.Errorf("level(%s) = %d, want %d", tag, got, wl)
		}
	}
}

func TestFigure1Equation1Exact(t *testing.T) {
	d := figure1(t)
	// |descendant(v)| = post(v) - pre(v) + level(v), exact (Equation 1).
	wantDesc := map[string]int32{
		"a": 9, "b": 1, "c": 0, "d": 0, "e": 5,
		"f": 2, "g": 0, "h": 0, "i": 1, "j": 0,
	}
	for tag, wd := range wantDesc {
		pre := preOf(t, d, tag)
		if got := d.SubtreeSize(pre); got != wd {
			t.Errorf("|desc(%s)| = %d, want %d", tag, got, wd)
		}
	}
}

func TestFigure1DescendantPredicate(t *testing.T) {
	d := figure1(t)
	f := preOf(t, d, "f")
	descOfF := map[string]bool{"g": true, "h": true}
	for tag := range map[string]int32{"a": 0, "b": 0, "c": 0, "d": 0, "e": 0, "g": 0, "h": 0, "i": 0, "j": 0} {
		got := d.IsDescendant(f, preOf(t, d, tag))
		if got != descOfF[tag] {
			t.Errorf("IsDescendant(f, %s) = %v, want %v", tag, got, descOfF[tag])
		}
	}
	// g/ancestor = (a, e, f) per the paper.
	g := preOf(t, d, "g")
	anc := map[string]bool{"a": true, "e": true, "f": true}
	for _, tag := range []string{"a", "b", "c", "d", "e", "f", "h", "i", "j"} {
		got := d.IsAncestor(g, preOf(t, d, tag))
		if got != anc[tag] {
			t.Errorf("IsAncestor(g, %s) = %v, want %v", tag, got, anc[tag])
		}
	}
}

func TestFigure1ParentsChildren(t *testing.T) {
	d := figure1(t)
	wantParent := map[string]string{
		"b": "a", "c": "b", "d": "a", "e": "a",
		"f": "e", "g": "f", "h": "f", "i": "e", "j": "i",
	}
	for c, p := range wantParent {
		if got := d.Parent(preOf(t, d, c)); got != preOf(t, d, p) {
			t.Errorf("parent(%s) = %d, want %s", c, got, p)
		}
	}
	if d.Parent(0) != NoParent {
		t.Error("root must have NoParent")
	}
	kids := d.Children(preOf(t, d, "e"))
	if len(kids) != 2 || d.Name(kids[0]) != "f" || d.Name(kids[1]) != "i" {
		t.Errorf("children(e) = %v", kids)
	}
	if sib := d.FollowingSibling(preOf(t, d, "f")); d.Name(sib) != "i" {
		t.Errorf("followingSibling(f) = %d", sib)
	}
	if sib := d.FollowingSibling(preOf(t, d, "i")); sib != -1 {
		t.Errorf("followingSibling(i) = %d, want -1", sib)
	}
	if sib := d.FollowingSibling(0); sib != -1 {
		t.Errorf("followingSibling(root) = %d, want -1", sib)
	}
}

func TestAttributesInPlane(t *testing.T) {
	d, err := ShredString(`<r id="1" x="y"><c a="b">t</c></r>`)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes: r, @id, @x, c, @a, text  => 6 nodes.
	if d.Size() != 6 {
		t.Fatalf("size = %d, want 6", d.Size())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	attrs := d.Attributes(0)
	if len(attrs) != 2 || d.Name(attrs[0]) != "id" || d.Value(attrs[1]) != "y" {
		t.Fatalf("attributes(root) = %v", attrs)
	}
	// Attributes must not appear among children.
	kids := d.Children(0)
	if len(kids) != 1 || d.Name(kids[0]) != "c" {
		t.Fatalf("children(root) = %v", kids)
	}
	// Equation 1 must hold for attribute nodes too.
	for pre := int32(0); int(pre) < d.Size(); pre++ {
		want := int32(0)
		for v := int32(0); int(v) < d.Size(); v++ {
			if d.IsDescendant(pre, v) {
				want++
			}
		}
		if got := d.SubtreeSize(pre); got != want {
			t.Errorf("node %d (%s): Eq(1) size %d, want %d", pre, d.KindOf(pre), got, want)
		}
	}
}

func TestShredDropsWhitespaceByDefault(t *testing.T) {
	d, err := ShredString("<a>\n  <b/>\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 2 {
		t.Fatalf("size = %d, want 2 (whitespace dropped)", d.Size())
	}
	d2, err := ShredString("<a>\n  <b/>\n</a>", shredKeepWhitespace())
	if err != nil {
		t.Fatal(err)
	}
	if d2.Size() != 4 {
		t.Fatalf("size = %d, want 4 (whitespace kept)", d2.Size())
	}
}

func TestShredCommentsAndPIs(t *testing.T) {
	d, err := ShredString(`<a><!--note--><?tgt data?><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 4 {
		t.Fatalf("size = %d, want 4", d.Size())
	}
	if d.KindOf(1) != Comment || d.Value(1) != "note" {
		t.Errorf("node 1 = %s %q", d.KindOf(1), d.Value(1))
	}
	if d.KindOf(2) != PI || d.Name(2) != "tgt" {
		t.Errorf("node 2 = %s %q", d.KindOf(2), d.Name(2))
	}
}

func TestShredRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		`<a><b></a></b>`, // mismatched nesting
		`<a>`,            // unclosed
		``,               // empty
		`<a/><b/>`,       // two roots without virtual root
	} {
		if _, err := ShredString(bad); err == nil {
			t.Errorf("ShredString(%q) succeeded, want error", bad)
		}
	}
}

func TestShredCollectionVirtualRoot(t *testing.T) {
	d, err := ShredCollection([]io.Reader{
		strings.NewReader(`<x><y/></x>`),
		strings.NewReader(`<p>q</p>`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.KindOf(0) != VRoot {
		t.Fatalf("node 0 kind = %s, want virtual-root", d.KindOf(0))
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	roots := d.Children(0)
	if len(roots) != 2 || d.Name(roots[0]) != "x" || d.Name(roots[1]) != "p" {
		t.Fatalf("collection roots = %v", roots)
	}
	// Document levels shift by one under the virtual root.
	if d.Level(roots[0]) != 1 {
		t.Errorf("level(x) = %d, want 1", d.Level(roots[0]))
	}
}

func TestBuilderWithoutValues(t *testing.T) {
	b := NewBuilder(WithoutValues())
	b.OpenElem("a")
	b.Attr("k", "v")
	b.Text("hello")
	b.CloseElem()
	d, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	if d.HasValues() {
		t.Fatal("HasValues should be false")
	}
	if d.Value(1) != "" || d.Value(2) != "" {
		t.Fatal("values must be empty when dropped")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestBuilderEventErrors(t *testing.T) {
	b := NewBuilder()
	b.OpenElem("a")
	b.Text("x")
	b.Attr("late", "1") // attribute after text: error
	if b.Err() == nil {
		t.Fatal("expected error for late attribute")
	}

	b2 := NewBuilder()
	b2.CloseElem()
	if b2.Err() == nil {
		t.Fatal("expected error for close without open")
	}

	b3 := NewBuilder()
	b3.Text("orphan")
	if b3.Err() == nil {
		t.Fatal("expected error for text outside element")
	}

	b4 := NewBuilder()
	b4.OpenElem("a")
	if _, err := b4.Done(); err == nil {
		t.Fatal("expected error for unclosed element")
	}
}

func TestSharedDict(t *testing.T) {
	dict := NewDict()
	d1, err := ShredString(`<a><b/></a>`, shredWithDict(dict))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ShredString(`<b><a/></b>`, shredWithDict(dict))
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := d1.Names().Lookup("a")
	id2, _ := d2.Names().Lookup("a")
	if id1 != id2 {
		t.Fatalf("shared dict ids differ: %d vs %d", id1, id2)
	}
	if dict.Len() != 2 {
		t.Fatalf("dict size = %d, want 2", dict.Len())
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	inputs := []string{
		figure1XML,
		`<r id="1" x="y"><c a="b">text &amp; more</c><!--hey--><?pi data?></r>`,
		`<a><b>one</b>two<b>three</b></a>`,
	}
	for _, in := range inputs {
		d1, err := ShredString(in)
		if err != nil {
			t.Fatalf("shred %q: %v", in, err)
		}
		out := d1.XML(d1.Root())
		d2, err := ShredString(out)
		if err != nil {
			t.Fatalf("re-shred %q: %v", out, err)
		}
		if d1.Size() != d2.Size() {
			t.Fatalf("round trip size %d -> %d for %q -> %q", d1.Size(), d2.Size(), in, out)
		}
		for pre := int32(0); int(pre) < d1.Size(); pre++ {
			if d1.Post(pre) != d2.Post(pre) || d1.KindOf(pre) != d2.KindOf(pre) ||
				d1.Name(pre) != d2.Name(pre) || d1.Value(pre) != d2.Value(pre) {
				t.Fatalf("round trip mismatch at pre %d for %q -> %q", pre, in, out)
			}
		}
	}
}

func TestSerializeSubtree(t *testing.T) {
	d := figure1(t)
	e := preOf(t, d, "e")
	got := d.XML(e)
	want := `<e><f><g/><h/></f><i><j/></i></e>`
	if got != want {
		t.Fatalf("XML(e) = %q, want %q", got, want)
	}
}

// --- randomized structural testing ---------------------------------------

// genRandomDoc builds a random document with n element/text nodes using
// the deterministic source rng. It exercises deep nesting and wide
// fanout alike.
func genRandomDoc(rng *rand.Rand, n int) *Document {
	b := NewBuilder()
	tags := []string{"r", "s", "t", "u", "v"}
	b.OpenElem("root")
	depth := 1
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 5: // open child
			b.OpenElem(tags[rng.Intn(len(tags))])
			if rng.Intn(3) == 0 {
				b.Attr("k", "v")
			}
			depth++
		case r < 7 && depth > 1: // close
			b.CloseElem()
			depth--
		default:
			b.Text("txt")
		}
	}
	for depth > 0 {
		b.CloseElem()
		depth--
	}
	d, err := b.Done()
	if err != nil {
		panic(err)
	}
	return d
}

func TestPropRandomDocsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		d := genRandomDoc(rng, 200)
		if err := d.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestPropEquation1ExactOnRandomDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		d := genRandomDoc(rng, 150)
		for pre := int32(0); int(pre) < d.Size(); pre++ {
			var want int32
			for v := int32(0); int(v) < d.Size(); v++ {
				if d.IsDescendant(pre, v) {
					want++
				}
			}
			if got := d.SubtreeSize(pre); got != want {
				t.Fatalf("trial %d node %d: Eq(1) = %d, want %d", trial, pre, got, want)
			}
		}
	}
}

func TestPropFourAxesPartitionPlane(t *testing.T) {
	// The context node plus its preceding/descendant/ancestor/following
	// regions cover all document nodes exactly once (Figure 1).
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		d := genRandomDoc(rng, 120)
		c := int32(rng.Intn(d.Size()))
		for v := int32(0); int(v) < d.Size(); v++ {
			inDesc := d.IsDescendant(c, v)
			inAnc := d.IsAncestor(c, v)
			inPrec := v < c && d.Post(v) < d.Post(c)
			inFoll := v > c && d.Post(v) > d.Post(c)
			count := 0
			for _, in := range []bool{inDesc, inAnc, inPrec, inFoll, v == c} {
				if in {
					count++
				}
			}
			if count != 1 {
				t.Fatalf("trial %d: node %d in %d regions of context %d", trial, v, count, c)
			}
		}
	}
}

// TestTagIndexPartitionsElements: every element sits in exactly its
// tag's list of the tag index, each list is sorted, and an unknown tag
// has no list.
func TestTagIndexPartitionsElements(t *testing.T) {
	d := genRandomDoc(rand.New(rand.NewSource(1)), 400)
	ix := d.TagIndex()
	total := 0
	for id := int32(0); int(id) < d.Names().Len(); id++ {
		list := ix.Tag(id)
		total += len(list)
		for i, v := range list {
			if d.KindOf(v) != Elem || d.NameID(v) != id {
				t.Fatalf("tag %q holds node %d (%v %q)", d.Names().Name(id), v, d.KindOf(v), d.Name(v))
			}
			if i > 0 && list[i-1] >= v {
				t.Fatalf("tag %q list unsorted", d.Names().Name(id))
			}
		}
	}
	elems := 0
	for v := int32(0); int(v) < d.Size(); v++ {
		if d.KindOf(v) == Elem {
			elems++
		}
	}
	if total != elems {
		t.Fatalf("tag lists cover %d elements, document has %d", total, elems)
	}
	if _, ok := d.Names().Lookup("nosuch"); ok {
		t.Fatal("unknown tag has a name id")
	}
	if ix.Tag(int32(d.Names().Len())) != nil || len(ix.KindList(uint8(Text))) == 0 {
		t.Fatal("tag index accounting broken")
	}
}

func TestPropRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d1 := genRandomDoc(rng, 60)
		out := d1.XML(d1.Root())
		d2, err := ShredString(out)
		if err != nil || d1.Size() != d2.Size() {
			return false
		}
		for pre := int32(0); int(pre) < d1.Size(); pre++ {
			if d1.Post(pre) != d2.Post(pre) || d1.Level(pre) != d2.Level(pre) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDictBasics(t *testing.T) {
	d := NewDict()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a == b {
		t.Fatal("distinct names share an id")
	}
	if d.Intern("alpha") != a {
		t.Fatal("re-intern changed id")
	}
	if d.Name(a) != "alpha" || d.Name(b) != "beta" {
		t.Fatal("Name lookup broken")
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Fatal("Lookup invented a name")
	}
	if d.Len() != 2 {
		t.Fatal("dict wrong size")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Elem: "element", Attr: "attribute", Text: "text",
		Comment: "comment", PI: "processing-instruction", VRoot: "virtual-root",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestComputeStats(t *testing.T) {
	d, err := ShredString(`<r a="1"><x>t</x><x/><!--c--><?p d?></r>`)
	if err != nil {
		t.Fatal(err)
	}
	st := d.ComputeStats()
	if st.Nodes != 7 || st.Elements != 3 || st.Attributes != 1 ||
		st.Texts != 1 || st.Comments != 1 || st.PIs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TagCounts["x"] != 2 || st.TagCounts["r"] != 1 {
		t.Fatalf("tag counts = %v", st.TagCounts)
	}
	// Fanout counts element+text children: r has x, x (comment and PI
	// are not counted).
	if st.MaxFanout != 2 {
		t.Fatalf("fanout = %d, want 2", st.MaxFanout)
	}
	top := st.TopTags(1)
	if len(top) != 1 || top[0].Tag != "x" || top[0].Count != 2 {
		t.Fatalf("TopTags = %v", top)
	}
	// Deepest node is the text inside <x>: level 2.
	if st.Height != 2 {
		t.Fatalf("height = %d, want 2", st.Height)
	}
	if st.AvgLevel <= 0 {
		t.Fatalf("avg level = %f", st.AvgLevel)
	}
}
