package doc

import "testing"

func TestStringValue(t *testing.T) {
	d, err := ShredString(`<a x="attr"><b>one</b>mid<b>two</b><!--c--></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.StringValue(0); got != "onemidtwo" {
		t.Fatalf("StringValue(root) = %q", got)
	}
	// Attribute node.
	attr := d.Attributes(0)[0]
	if got := d.StringValue(attr); got != "attr" {
		t.Fatalf("StringValue(attr) = %q", got)
	}
	// Text node.
	var text int32 = -1
	for v := int32(0); int(v) < d.Size(); v++ {
		if d.KindOf(v) == Text && d.Value(v) == "mid" {
			text = v
		}
	}
	if got := d.StringValue(text); got != "mid" {
		t.Fatalf("StringValue(text) = %q", got)
	}
	// Without values: empty.
	b := NewBuilder(WithoutValues())
	b.OpenElem("a")
	b.Text("x")
	b.CloseElem()
	d2, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	if d2.StringValue(0) != "" {
		t.Fatal("StringValue without values should be empty")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func(t *testing.T) *Document { return figure1(t) }

	d := fresh(t)
	d.post[3] = d.post[4] // duplicate post rank
	if err := d.Validate(); err == nil {
		t.Error("duplicate post rank not caught")
	}

	d = fresh(t)
	d.post[3] = 99 // out of range
	if err := d.Validate(); err == nil {
		t.Error("out-of-range post not caught")
	}

	d = fresh(t)
	d.level[5] = 9 // inconsistent with parent
	if err := d.Validate(); err == nil {
		t.Error("level mismatch not caught")
	}

	d = fresh(t)
	d.parent[4] = 7 // parent after child
	if err := d.Validate(); err == nil {
		t.Error("forward parent not caught")
	}

	d = fresh(t)
	d.parent[0] = 3 // root with parent
	if err := d.Validate(); err == nil {
		t.Error("root parent not caught")
	}
}

func TestSubtreeTextAndLeaves(t *testing.T) {
	d := figure1(t)
	// Kind and name slices are exposed for operator loops.
	if len(d.KindSlice()) != d.Size() || len(d.NameSlice()) != d.Size() ||
		len(d.LevelSlice()) != d.Size() || len(d.ParentSlice()) != d.Size() ||
		len(d.PostSlice()) != d.Size() {
		t.Fatal("slice views wrong length")
	}
	if d.HasValues() != true {
		t.Fatal("figure1 should retain values")
	}
}
