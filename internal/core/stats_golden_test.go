package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/doc"
	"staircase/internal/xmark"
)

// The counter contract: Stats' work counters are the paper's own metric
// (Figure 11 (c), nodes touched per variant) and the repository
// benchmark's touched_per_result, so a kernel rewrite may change how a
// node is emitted but never which nodes the scan visits. The golden file
// was dumped from the kernels as they stood before the sized-once
// rewrite; regenerate it (go test ./internal/core -run StatsGolden
// -update-stats-golden) only for a change that means to move them.
// Stats.Result is deliberately absent: it counts nodes after the emit
// test, which is a property of the test, not of the scan.

var updateStatsGolden = flag.Bool("update-stats-golden", false, "rewrite testdata/stats_golden.json")

type goldenCounters struct {
	ContextSize, PrunedSize, Scanned, Copied, Compared, Skipped int64
}

var partitioningAxes = []axis.Axis{axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding}

// goldenFixture returns the fixed-seed document, its three contexts
// (the root alone; every bidder and increase element, nested pairs; every
// 37th node, attributes and text included) and the node list the list
// kernels join against (every third node).
func goldenFixture(t testing.TB) (d *doc.Document, contexts [3][]int32, list []int32) {
	t.Helper()
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	contexts[0] = []int32{d.Root()}
	for v := int32(0); int(v) < d.Size(); v++ {
		if n := d.Name(v); d.KindOf(v) == doc.Elem && (n == "bidder" || n == "increase") {
			contexts[1] = append(contexts[1], v)
		}
		if v%37 == 5 {
			contexts[2] = append(contexts[2], v)
		}
		if v%3 == 0 {
			list = append(list, v)
		}
	}
	return d, contexts, list
}

func TestStatsGolden(t *testing.T) {
	d, contexts, list := goldenFixture(t)
	got := map[string]goldenCounters{}
	for _, a := range partitioningAxes {
		for _, v := range []Variant{NoSkip, Skip, SkipEstimate} {
			for ci, ctx := range contexts {
				for _, kernel := range []string{"document", "node-list"} {
					var st Stats
					o := &Options{Variant: v, Stats: &st}
					var err error
					if kernel == "document" {
						_, err = Join(d, a, ctx, o)
					} else {
						_, err = JoinNodeList(d, a, list, ctx, o)
					}
					if err != nil {
						t.Fatal(err)
					}
					got[fmt.Sprintf("%v/%v/%s/ctx%d", a, v, kernel, ci)] = goldenCounters{
						st.ContextSize, st.PrunedSize, st.Scanned, st.Copied, st.Compared, st.Skipped}
				}
			}
		}
	}
	path := filepath.Join("testdata", "stats_golden.json")
	if *updateStatsGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenCounters
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d kernel configurations, golden has %d", len(got), len(want))
	}
	for k, w := range want {
		if g := got[k]; g != w {
			t.Errorf("%s: counters %+v, golden %+v", k, g, w)
		}
	}
}
