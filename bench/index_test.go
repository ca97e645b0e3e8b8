package bench

import (
	"slices"
	"testing"

	"staircase/internal/engine"
)

// TestIndexPushdownSpeedup is the PR's acceptance bar: on the 0.5 MB
// smoke document, warm index-backed name-test pushdown must run at
// least 5x faster than the rescan baseline (Options.NoIndex). The real
// ratio is far larger (the rescan walks every node twice per Q1, the
// warm path binary-searches two small fragments); 5x leaves room for
// noisy CI runners and the race detector.
func TestIndexPushdownSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement in -short mode")
	}
	c := NewCorpus()
	d := c.Doc(smokeSizeMB)
	e := engine.New(d)
	d.TagIndex() // warm

	run := func(opts *engine.Options) *engine.Result {
		r, err := e.EvalString(Q1, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	warmOpts := &engine.Options{Pushdown: engine.PushAlways}
	coldOpts := &engine.Options{Pushdown: engine.PushAlways, NoIndex: true}
	warmRes, coldRes := run(warmOpts), run(coldOpts)
	if !slices.Equal(warmRes.Nodes, coldRes.Nodes) {
		t.Fatal("warm and rescan evaluation disagree")
	}
	// Every pushed step takes its fragment from the tag/kind index when
	// warm and from a name-column scan under NoIndex.
	for i, s := range warmRes.Steps {
		if !s.Pushed || !s.Indexed {
			t.Errorf("warm step %d (%s): pushed=%v indexed=%v, want an index fragment", i+1, s.Step, s.Pushed, s.Indexed)
		}
		if cs := coldRes.Steps[i]; !cs.Pushed || cs.Indexed {
			t.Errorf("rescan step %d (%s): pushed=%v indexed=%v, want a name-column scan", i+1, cs.Step, cs.Pushed, cs.Indexed)
		}
	}
	rescan := timeIt(7, func() { run(coldOpts) })
	warm := timeIt(7, func() { run(warmOpts) })
	ratio := float64(rescan.Nanoseconds()) / float64(warm.Nanoseconds())
	t.Logf("rescan %v, warm %v, speedup %.1fx", rescan, warm, ratio)
	if ratio < 5 {
		t.Fatalf("warm pushdown only %.1fx faster than rescan, want >= 5x", ratio)
	}
}
