package engine

import (
	"testing"

	"staircase/internal/axis"
	"staircase/internal/doc"
	"staircase/internal/xmark"
)

func TestCostModelPushesSelectiveTags(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.3, Seed: 9, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	root := []int32{d.Root()}

	// `education` is rare; the whole-document descendant join from the
	// root would touch everything => push.
	if !shouldPushTag(e, "education", e.estimateJoinTouches(axis.Descendant, root), PushAuto) {
		t.Error("expected pushdown for selective tag from root context")
	}
	// Absent tag: trivially pushed (empty fragment).
	if !shouldPushTag(e, "nosuchtag", e.estimateJoinTouches(axis.Descendant, root), PushAuto) {
		t.Error("expected pushdown for absent tag")
	}
	// Forced modes override the model.
	if shouldPushTag(e, "education", e.estimateJoinTouches(axis.Descendant, root), PushNever) {
		t.Error("PushNever must not push")
	}
	if !shouldPushTag(e, "nosuchtag", e.estimateJoinTouches(axis.Descendant, root), PushAlways) {
		t.Error("PushAlways must push")
	}
}

// shouldPushTag mirrors the evaluation path's pushdown decision for a
// tag name: exact fragment cardinality from the shared index, then the
// shouldPush policy/cost gate.
func shouldPushTag(e *Engine, tag string, bound int64, mode Pushdown) bool {
	var frag int64
	if id, ok := e.d.Names().Lookup(tag); ok {
		frag = int64(e.d.TagIndex().TagCount(id))
	}
	return shouldPush(frag, bound, mode)
}

func TestCostModelAvoidsPushForTinyContexts(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.3, Seed: 9, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	// A context of one small-subtree leaf: the full join touches a
	// handful of nodes, while the `item` fragment is large => no push.
	r, err := e.EvalString("//education", nil)
	if err != nil || len(r.Nodes) == 0 {
		t.Fatalf("no education nodes: %v", err)
	}
	leaf := r.Nodes[0]
	if d.SubtreeSize(leaf) > 4 {
		t.Skip("education unexpectedly large")
	}
	if shouldPushTag(e, "item", e.estimateJoinTouches(axis.Descendant, []int32{leaf}), PushAuto) {
		t.Error("pushed a large fragment for a tiny context subtree")
	}
}

func TestEstimateJoinTouchesBounds(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.2, Seed: 3, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	n := int64(d.Size())
	root := []int32{d.Root()}
	// From the root, the descendant bound saturates at the document.
	if got := e.estimateJoinTouches(axis.Descendant, root); got != n {
		t.Errorf("descendant estimate from root = %d, want %d", got, n)
	}
	// Ancestor bound never exceeds the last context pre rank.
	last := int32(d.Size() - 1)
	if got := e.estimateJoinTouches(axis.Ancestor, []int32{last}); got > int64(last) {
		t.Errorf("ancestor estimate %d > %d", got, last)
	}
	// Following/preceding estimates are complementary-ish regions.
	mid := int32(d.Size() / 2)
	f := e.estimateJoinTouches(axis.Following, []int32{mid})
	p := e.estimateJoinTouches(axis.Preceding, []int32{mid})
	if f <= 0 || p <= 0 || f > n || p > n {
		t.Errorf("following/preceding estimates out of range: %d, %d", f, p)
	}
	if e.estimateJoinTouches(axis.Following, nil) != 0 {
		t.Error("empty context should cost 0")
	}
	if e.estimateJoinTouches(axis.Preceding, nil) != 0 {
		t.Error("empty context should cost 0")
	}
}

func TestComputeStats(t *testing.T) {
	d, err := doc.ShredString(`<r a="1"><x>t</x><x/><!--c--><?p d?></r>`)
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

// TestEmptyContextAncestorStep: an intermediate step producing no
// nodes followed by ancestor::<existing-tag> must evaluate to an empty
// result, not panic in the cost model (estimateJoinTouches used to
// index context[len-1] for the ancestor axis without an empty guard).
func TestEmptyContextAncestorStep(t *testing.T) {
	d := shred(t, `<r><b><c/></b></r>`)
	e := New(d)
	for _, q := range []string{
		"/descendant::nosuchtag/ancestor::b",
		"/descendant::nosuchtag/preceding::b",
		"/descendant::nosuchtag/following::b",
		"/descendant::nosuchtag/descendant::b",
	} {
		res, err := e.EvalString(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Nodes) != 0 {
			t.Fatalf("%s: expected empty result, got %v", q, res.Nodes)
		}
		if _, err := explain(e, q, nil); err != nil {
			t.Fatalf("explain %s: %v", q, err)
		}
	}
}
