package bench

import (
	"slices"
	"strings"
	"testing"
	"time"

	"staircase/internal/axis"
	"staircase/internal/engine"
)

// tinySizes keeps unit tests fast; the golden tables run at paperSizes
// and cmd/benchrun at any size.
var tinySizes = []float64{0.05, 0.1}

func TestAllExperimentsRunAndRender(t *testing.T) {
	c := NewCorpus()
	for _, exp := range Experiments {
		tb := exp.Run(c, tinySizes)
		if tb.ID != exp.ID {
			t.Errorf("experiment %s renders table %s", exp.ID, tb.ID)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", tb.ID)
		}
		out := tb.Format()
		if !strings.Contains(out, tb.ID) || !strings.Contains(out, tb.Header[0]) {
			t.Errorf("%s: bad rendering:\n%s", tb.ID, out)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Errorf("%s: row width %d != header width %d", tb.ID, len(row), len(tb.Header))
			}
		}
	}
}

func TestCorpusCaches(t *testing.T) {
	c := NewCorpus()
	d1 := c.Doc(0.05)
	d2 := c.Doc(0.05)
	if d1 != d2 {
		t.Fatal("corpus did not cache")
	}
}

// TestTagPathMatchesEngine: staircase joins over the tag index's
// fragments answer Q1 and Q2 exactly like the engine.
func TestTagPathMatchesEngine(t *testing.T) {
	d := NewCorpus().Doc(0.1)
	e := engine.New(d)
	for q, steps := range map[string][]TagStep{
		Q1: {{Axis: axis.Descendant, Tag: "profile"}, {Axis: axis.Descendant, Tag: "education"}},
		Q2: {{Axis: axis.Descendant, Tag: "increase"}, {Axis: axis.Ancestor, Tag: "bidder"}},
	} {
		got, err := TagPath(d, steps, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.EvalString(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Nodes) == 0 || !slices.Equal(got, want.Nodes) {
			t.Fatalf("%s: tag path %d nodes, engine %d", q, len(got), len(want.Nodes))
		}
	}
}

// TestTagPathUnknownTag: an unknown tag yields nothing, and an axis the
// staircase join does not partition is an error, not an empty result.
func TestTagPathUnknownTag(t *testing.T) {
	d := NewCorpus().Doc(0.05)
	if got, err := TagPath(d, []TagStep{{Axis: axis.Descendant, Tag: "zzz"}}, nil); err != nil || got != nil {
		t.Fatalf("unknown tag: %v, %v", got, err)
	}
	if _, err := TagPath(d, []TagStep{{Axis: axis.Child, Tag: "site"}}, nil); err == nil {
		t.Fatal("expected error for non-partitioning axis")
	}
}

// TestFig11aShowsDuplicates: on Q2's ancestor step the naive plan
// produces duplicates (sibling bidders share ancestor paths), compared as
// integers over the golden tables' runs.
func TestFig11aShowsDuplicates(t *testing.T) {
	paperShapes["fig11a"](t, paperTable(t, "fig11a"))
}

// TestFig11cSkipBeatsNoSkip: skipping scans fewer nodes than no
// skipping, compared as integers over the golden tables' runs.
func TestFig11cSkipBeatsNoSkip(t *testing.T) {
	paperShapes["fig11c"](t, paperTable(t, "fig11c"))
}

func TestTimeItReturnsPositive(t *testing.T) {
	d := timeIt(3, func() { time.Sleep(time.Microsecond) })
	if d <= 0 {
		t.Fatal("timeIt returned non-positive duration")
	}
	if timeIt(0, func() {}) < 0 {
		t.Fatal("timeIt with 0 reps broken")
	}
}
