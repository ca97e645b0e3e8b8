package bench

import (
	"slices"
	"strings"
	"testing"
	"time"

	"staircase/internal/axis"
	"staircase/internal/engine"
)

// tinySizes keeps unit tests fast; the experiments themselves run at
// larger scale via cmd/benchrun and the repo-level benchmarks.
var tinySizes = []float64{0.05, 0.1}

func TestAllExperimentsRunAndRender(t *testing.T) {
	c := NewCorpus()
	tables := []Table{
		Table1(c, tinySizes),
		Fig3(c, tinySizes),
		Fig11a(c, tinySizes),
		Fig11b(c, tinySizes),
		Fig11c(c, tinySizes),
		Fig11d(c, tinySizes),
		Fig11e(c, tinySizes),
		Fig11f(c, tinySizes),
		Window(c, tinySizes),
		Fragmentation(c, tinySizes),
		Parallel(c, 0.1, []int{1, 2}),
		CopyVsScan(c, tinySizes),
		MPMGJN(c, tinySizes),
		Storage(c, tinySizes),
	}
	for _, tb := range tables {
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

func TestFig11aShowsDuplicates(t *testing.T) {
	c := NewCorpus()
	tb := Fig11a(c, []float64{0.2})
	// naive-produced > staircase: duplicates exist on Q2 (sibling
	// bidders share ancestor paths).
	row := tb.Rows[0]
	if row[2] <= row[3] && len(row[2]) <= len(row[3]) {
		t.Fatalf("expected naive-produced > staircase: %v", row)
	}
}

func TestFig11cSkipBeatsNoSkip(t *testing.T) {
	c := NewCorpus()
	tb := Fig11c(c, []float64{0.2})
	row := tb.Rows[0]
	noskip, skip := row[1], row[2]
	if len(skip) > len(noskip) || (len(skip) == len(noskip) && skip > noskip) {
		t.Fatalf("skip (%s) should scan fewer nodes than no-skip (%s)", skip, noskip)
	}
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
