// The value-index experiment: comparison and contains() predicates
// served by the per-document value index (staircase-intersectable
// pre-sorted fragments from the string/numeric partitions) versus the
// per-node re-evaluation fallback (Options.NoValueIndex), plus the
// one-off construction cost that buys the difference. This is the §6
// fragmentation idea applied to the value plane: a predicate becomes a
// fragment fetch plus a pre-order semijoin instead of a sub-plan run
// for every candidate node.
package bench

import (
	"context"
	"fmt"
	"time"

	"staircase/internal/engine"
)

// The value-experiment query pair: a numeric range comparison served
// by the derived numeric partition, and a substring predicate
// served by the string partition's scan — the two ends of the value
// index's selectivity spectrum.
const (
	QValueRange    = "//open_auction[current > 100]"
	QValueContains = "//person[contains(name, 'a')]/name"
)

// ValuePushdown regenerates the value-index ablation: each query
// evaluated with the warm value index (fragment semijoin) versus
// per-node predicate re-evaluation (Options.NoValueIndex), and the
// contains() query additionally as a top-1 probe through the streaming
// executor — first-result latency is where a pre-sorted fragment pays
// most, since the cursor can stop after one satisfying batch.
func ValuePushdown(c *Corpus, sizes []float64) Table {
	t := Table{
		ID:     "value",
		Title:  "value index: warm fragment semijoin vs per-node re-evaluation",
		Header: []string{"size[MB]", "case", "result", "build[ms]", "vidx-bytes", "rescan[ms]", "warm[ms]", "speedup"},
		Notes: []string{
			fmt.Sprintf("range = %s (numeric range); contains = %s (string partition scan)", QValueRange, QValueContains),
			"rescan = Options.NoValueIndex: the predicate sub-plan runs once per candidate node",
			"both sides run prepared plans (the server's steady state); the warm plan's fragment is materialised once per plan",
			"top1 = EvalLimit(1) through the cursor executor: first-result latency",
		},
	}
	ctx := context.Background()
	for _, mb := range sizes {
		d := c.ValueDoc(mb)
		e := engine.New(d)
		d.TagIndex() // warm the name-test pushdown path on both sides
		build := timeIt(3, func() {
			if d.RebuildValueIndex() == nil {
				panic("bench: value corpus has no values")
			}
		})
		ix := d.ValueIndex() // warm the shared value index

		run := func(q string, opts *engine.Options) (time.Duration, int) {
			p, err := e.PrepareString(q, opts)
			if err != nil {
				panic(err)
			}
			var n int
			dur := timeIt(5, func() {
				r, err := p.Run()
				if err != nil {
					panic(err)
				}
				n = len(r.Nodes)
			})
			return dur, n
		}
		top1 := func(q string, opts *engine.Options) (time.Duration, int) {
			p, err := e.PrepareString(q, opts)
			if err != nil {
				panic(err)
			}
			var n int
			dur := timeIt(5, func() {
				r, err := p.EvalLimit(ctx, 1)
				if err != nil {
					panic(err)
				}
				n = len(r.Nodes)
			})
			return dur, n
		}

		rescanOpts := &engine.Options{NoValueIndex: true}
		first := true
		for _, cs := range []struct {
			name string
			q    string
			eval func(string, *engine.Options) (time.Duration, int)
		}{
			{"range-full", QValueRange, run},
			{"contains-full", QValueContains, run},
			{"contains-top1", QValueContains, top1},
		} {
			rescan, n1 := cs.eval(cs.q, rescanOpts)
			warm, n2 := cs.eval(cs.q, nil)
			if n1 != n2 {
				panic(fmt.Sprintf("bench: value result mismatch (%s): %d vs %d", cs.name, n1, n2))
			}
			buildCell, bytesCell := "-", "-"
			if first {
				buildCell, bytesCell = ms(build), fmt.Sprint(ix.Bytes())
				first = false
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.1f", mb), cs.name, fmt.Sprint(n1),
				buildCell, bytesCell, ms(rescan), ms(warm),
				fmt.Sprintf("%.1fx", float64(rescan.Nanoseconds())/float64(max(warm.Nanoseconds(), 1))),
			})
		}
	}
	return t
}
