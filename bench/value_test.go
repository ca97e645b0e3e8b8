package bench

import (
	"slices"
	"strings"
	"testing"

	"staircase/internal/engine"
)

// qValueRange is a numeric range comparison served by the value index's
// derived numeric partition.
const qValueRange = "//open_auction[current > 100]"

// TestValuePushdownSpeedup holds the value-index fragment semijoin to
// its work, not its wall clock: on the 0.5 MB smoke document (values
// retained) the numeric range query returns the same nodes through the
// warm prepared plan and through per-node re-evaluation
// (Options.NoValueIndex); the warm plan serves its predicate from a
// value-index range and the rescan plan evaluates it once per candidate;
// and, under both, the name step is an index fragment join touching at
// most fragment + context nodes.
func TestValuePushdownSpeedup(t *testing.T) {
	c := NewCorpus()
	d := c.ValueDoc(smokeSizeMB)
	e := engine.New(d)

	run := func(opts *engine.Options, source string) *engine.Result {
		p, err := e.PrepareString(qValueRange, opts)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if plan, err := p.Explain(); err != nil || !strings.Contains(plan, source) {
			t.Fatalf("plan under %+v does not read %q (err %v):\n%s", opts, source, err, plan)
		}
		return r
	}
	warm := run(nil, "value index (numeric range)")
	rescan := run(&engine.Options{NoValueIndex: true}, "per-node evaluation (value index disabled)")
	if len(warm.Nodes) == 0 || !slices.Equal(warm.Nodes, rescan.Nodes) {
		t.Fatalf("warm (%d nodes) and rescan (%d nodes) evaluation disagree", len(warm.Nodes), len(rescan.Nodes))
	}
	tags := []string{"open_auction"}
	checkFragmentWork(t, d, "warm", warm.Steps, tags, true)
	checkFragmentWork(t, d, "rescan", rescan.Steps, tags, true)
}
