package bench

import (
	"slices"
	"testing"

	"staircase/internal/doc"
	"staircase/internal/engine"
)

// smokeSizeMB is the document size of the work assertions: big enough
// that a column scan dwarfs an index fragment join, small enough to
// generate in milliseconds.
const smokeSizeMB = 0.5

// tagFragment is the tag/kind index's node list for an element name —
// the fragment a pushed name test joins against.
func tagFragment(t *testing.T, d *doc.Document, name string) []int32 {
	t.Helper()
	id, ok := d.Names().Lookup(name)
	if !ok {
		t.Fatalf("no element named %s in the corpus", name)
	}
	return d.TagIndex().Tag(id)
}

// checkFragmentWork asserts the work behind a pushed-down evaluation,
// step by step (tags[i] is step i's name test): the join itself may
// touch at most fragment + context nodes, and the fragment comes from
// the index (indexed) or from a name-column scan, which walks all
// d.Size() nodes — so the document must outweigh the join's whole work
// bound by the factor the old wall-clock bar asked for.
func checkFragmentWork(t *testing.T, d *doc.Document, what string, steps []engine.StepReport, tags []string, indexed bool) {
	t.Helper()
	if len(steps) != len(tags) {
		t.Fatalf("%s: %d steps reported, want %d", what, len(steps), len(tags))
	}
	for i, s := range steps {
		if !s.Pushed || s.Indexed != indexed {
			t.Errorf("%s step %d (%s): pushed=%v indexed=%v, want pushed with indexed=%v", what, i+1, s.Step, s.Pushed, s.Indexed, indexed)
		}
		bound := int64(len(tagFragment(t, d, tags[i])) + s.InputSize)
		if s.Core.Scanned > bound {
			t.Errorf("%s step %d (%s): join scanned %d nodes, bound is fragment + context = %d", what, i+1, s.Step, s.Core.Scanned, bound)
		}
		if !indexed && int64(d.Size()) < 5*bound {
			t.Errorf("%s step %d (%s): the column scan's %d nodes are under 5x the indexed work bound %d", what, i+1, s.Step, d.Size(), bound)
		}
	}
}

// TestIndexPushdownSpeedup holds index-backed name-test pushdown to its
// work, not its wall clock: on the 0.5 MB smoke document the warm
// path and the rescan baseline (Options.NoIndex) return the same nodes,
// every step of Q1 takes its fragment from the tag/kind index when warm
// and from a name-column scan under NoIndex, and the warm join touches
// at most fragment + context nodes where the rescan walks the document.
func TestIndexPushdownSpeedup(t *testing.T) {
	c := NewCorpus()
	d := c.Doc(smokeSizeMB)
	e := engine.New(d)

	run := func(opts *engine.Options) *engine.Result {
		r, err := e.EvalString(Q1, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	warm := run(&engine.Options{Pushdown: engine.PushAlways})
	rescan := run(&engine.Options{Pushdown: engine.PushAlways, NoIndex: true})
	if len(warm.Nodes) == 0 || !slices.Equal(warm.Nodes, rescan.Nodes) {
		t.Fatalf("warm (%d nodes) and rescan (%d nodes) evaluation disagree", len(warm.Nodes), len(rescan.Nodes))
	}
	q1Tags := []string{"profile", "education"}
	checkFragmentWork(t, d, "warm", warm.Steps, q1Tags, true)
	checkFragmentWork(t, d, "rescan", rescan.Steps, q1Tags, false)
}
