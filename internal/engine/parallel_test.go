package engine

import (
	"context"
	"slices"
	"strings"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/xmark"
)

// parallelQueries exercises every partitioning axis plus pushdown and
// or-self merging on top of the parallel join.
var parallelQueries = []string{
	"/descendant::profile",
	"/descendant::profile/descendant::education",
	"/descendant::increase/ancestor::bidder",
	"//person//education",
	"/descendant::increase/following::item",
	"/descendant::bidder/preceding::increase",
	"/descendant::profile/ancestor-or-self::person",
}

// TestParallelEvalMatchesSerial checks the engine acceptance bar:
// parallel evaluation is byte-identical to serial evaluation on an
// XMark-generated document for every query and worker setting.
func TestParallelEvalMatchesSerial(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.4, Seed: 21, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	for _, q := range parallelQueries {
		want, err := e.EvalString(q, &Options{Pushdown: PushNever})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 4, 8, AutoParallelism} {
			got, err := e.EvalString(q, &Options{Pushdown: PushNever, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Nodes) != len(want.Nodes) {
				t.Fatalf("%s parallelism=%d: %d nodes vs %d serial", q, par, len(got.Nodes), len(want.Nodes))
			}
			for i := range got.Nodes {
				if got.Nodes[i] != want.Nodes[i] {
					t.Fatalf("%s parallelism=%d: node %d differs (%d vs %d)", q, par, i, got.Nodes[i], want.Nodes[i])
				}
			}
		}
	}
}

// TestLimitCursorIgnoresParallelism: a limit consumer runs the serial
// windowed kernels whatever Parallelism says, so it keeps its early
// exit — every step scans exactly what it scans under serial options,
// and less than the full evaluation.
func TestLimitCursorIgnoresParallelism(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 4, Seed: 1, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	for _, q := range []string{
		"//item//text()/following::keyword",
		"/descendant::text()/ancestor::node()",
	} {
		var scanned [2][]int64
		for i, par := range []int{0, 4} {
			p, err := e.PrepareString(q, &Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			r, err := p.EvalLimit(context.Background(), 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Nodes) != 10 || !r.Truncated {
				t.Fatalf("%s parallelism=%d: %d nodes, truncated=%v", q, par, len(r.Nodes), r.Truncated)
			}
			for _, st := range r.Steps {
				scanned[i] = append(scanned[i], st.Core.Scanned)
			}
		}
		if !slices.Equal(scanned[0], scanned[1]) {
			t.Fatalf("%s: per-step scanned %v serial vs %v with Parallelism 4", q, scanned[0], scanned[1])
		}
		full, err := e.EvalString(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		var limited, all int64
		for i, st := range full.Steps {
			limited += scanned[0][i]
			all += st.Core.Scanned
		}
		if limited >= all {
			t.Fatalf("%s: limit 10 scanned %d nodes, the full run %d", q, limited, all)
		}
	}
}

// TestParallelWorkersReported checks that a large enough descendant
// step actually fans out and records the worker count in the report.
func TestParallelWorkersReported(t *testing.T) {
	// open_auction subtrees cover ~9k nodes at 1 MB: enough estimated
	// work for the cost model to grant all four requested workers.
	d, err := xmark.Generate(xmark.Config{SizeMB: 1, Seed: 21, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	res, err := e.EvalString("/descendant::open_auction/descendant::bidder",
		&Options{Pushdown: PushNever, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sawParallel bool
	for _, s := range res.Steps {
		if s.Core.Workers > 1 {
			sawParallel = true
		}
	}
	if !sawParallel {
		t.Fatalf("no step reported parallel workers; steps: %+v", res.Steps)
	}
}

// TestParallelCostModelDeclinesTinySteps: on a tiny document every step
// is below minParallelWork, so requesting workers must not fan out.
func TestParallelCostModelDeclinesTinySteps(t *testing.T) {
	d := shred(t, `<r><a><b/><b/></a><a><b/></a></r>`)
	e := New(d)
	res, err := e.EvalString("/descendant::b", &Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Steps {
		if s.Core.Workers > 1 {
			t.Fatalf("tiny step fanned out to %d workers", s.Core.Workers)
		}
	}
}

// TestExplainShowsParallel checks the EXPLAIN surface for the parallel
// operator: worker fan-out with partition counts when it runs, and the
// cost-model decline note when it does not.
func TestExplainShowsParallel(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 1, Seed: 21, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	out, err := e.Explain("/descendant::open_auction/descendant::bidder",
		&Options{Pushdown: PushNever, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "parallel: 4 workers over") {
		t.Fatalf("explain missing parallel fan-out line:\n%s", out)
	}
	if !strings.Contains(out, "partitions (disjoint pre ranges") {
		t.Fatalf("explain missing partition count:\n%s", out)
	}

	tiny := New(shred(t, `<r><a><b/></a></r>`))
	out, err = tiny.Explain("/descendant::b", &Options{Parallelism: 8, Pushdown: PushNever})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "declined by cost model") {
		t.Fatalf("explain missing cost-model decline:\n%s", out)
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
		if _, err := e.Explain(q, nil); err != nil {
			t.Fatalf("explain %s: %v", q, err)
		}
	}
}

// TestParallelPushdownCostInteraction: parallelism divides the
// full-join bound, so a borderline fragment that wins serially can
// lose once the join fans out. We only check consistency: the auto
// decision with workers w equals costPushdown with that w.
func TestParallelPushdownCostInteraction(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.3, Seed: 9, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	root := []int32{d.Root()}
	bound := e.estimateJoinTouches(axis.Descendant, root)
	id, ok := d.Names().Lookup("education")
	if !ok {
		t.Fatal("no education tag")
	}
	frag := int64(d.TagIndex().TagCount(id))
	for _, w := range []int{1, 2, 8, 64} {
		want := costPushdown(frag, bound, w)
		got := shouldPush(frag, bound, PushAuto, w)
		if got != want {
			t.Fatalf("workers=%d: shouldPush=%v costPushdown=%v", w, got, want)
		}
	}
}
