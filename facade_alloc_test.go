package staircase

import (
	"bytes"
	"context"
	"testing"
)

// TestRootPlanAddsNoAllocations pins that the public Plan is the plan
// package's plan and nothing more: a warm Run and RunLimit(10) allocate
// exactly what plan.Plan's RunRoot and RunLimitRoot do, on value
// predicates, descendant, ancestor and following paths.
func TestRootPlanAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	var text bytes.Buffer
	if err := WriteXMark(&text, 1, 7); err != nil {
		t.Fatal(err)
	}
	d, err := Load(&text)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range []string{
		"/descendant::open_auction[initial > 100]",
		"/descendant::open_auction[initial > 499.5]/bidder",
		"/descendant::open_auction/descendant::bidder",
		"/descendant::keyword/ancestor::listitem",
		"/descendant::seller/following::bidder",
	} {
		p, err := d.Prepare(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			face       string
			root, plan func() error
		}{
			{"Run",
				func() error { _, err := p.Run(); return err },
				func() error { _, err := p.p.RunRoot(); return err }},
			{"RunLimit(10)",
				func() error { _, err := p.RunLimit(10); return err },
				func() error { _, err := p.p.RunLimitRoot(ctx, 10); return err }},
		} {
			allocs := func(run func() error) float64 {
				if err := run(); err != nil {
					t.Fatal(err)
				}
				return testing.AllocsPerRun(20, func() {
					if err := run(); err != nil {
						t.Fatal(err)
					}
				})
			}
			root, pl := allocs(c.root), allocs(c.plan)
			t.Logf("%s %s: %v allocations, plan %v", q, c.face, root, pl)
			if root != pl {
				t.Errorf("%s %s: %v allocations per warm run, the plan's %v", q, c.face, root, pl)
			}
		}
	}
}
