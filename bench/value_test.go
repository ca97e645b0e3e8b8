package bench

import (
	"slices"
	"strings"
	"testing"

	"staircase/internal/engine"
	"staircase/internal/plan"
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
	env := plan.NewEnv(d)

	run := func(opts *engine.Options, source string) *engine.Result {
		po := engine.PlanOptions(opts)
		p, err := plan.Prepare(env, qValueRange, &po)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.RunRoot()
		if err != nil {
			t.Fatal(err)
		}
		if text := p.ExplainText(r); !strings.Contains(text, source) {
			t.Fatalf("plan under %+v does not read %q:\n%s", opts, source, text)
		}
		return r
	}
	warm := run(nil, "value index (numeric range)")
	rescan := run(&engine.Options{NoValueIndex: true}, "(node at a time)")
	if len(warm.Nodes) == 0 || !slices.Equal(warm.Nodes, rescan.Nodes) {
		t.Fatalf("warm (%d nodes) and rescan (%d nodes) evaluation disagree", len(warm.Nodes), len(rescan.Nodes))
	}
	tags := []string{"open_auction"}
	checkFragmentWork(t, d, "warm", warm.Steps, tags, true)
	checkFragmentWork(t, d, "rescan", rescan.Steps, tags, true)
}
