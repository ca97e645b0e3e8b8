package plan

import (
	"context"
	"math"
	"runtime"
	"testing"

	"staircase/internal/xmark"
)

// TestPositionalStepResolvesFragmentOnce: a positional step resolves its
// fragment once per plan, not once per context node. Under NoIndex every
// resolution is a column scan over the whole document, so per-node
// resolution makes a run's allocation grow with context × document; once
// per plan it grows with the document alone. Both faces are measured,
// Plan.Run and the cursor behind RunLimit, as bytes allocated per run
// from 0.5 MB to 2 MB of XMark (4× the nodes): linear growth reads about
// 4×, per-node scans read over 20×.
func TestPositionalStepResolvesFragmentOnce(t *testing.T) {
	const q = "//person/descendant::name[1]"
	faces := []struct {
		name string
		run  func(p *Plan) (*Result, error)
	}{
		{"Run", (*Plan).RunRoot},
		{"RunLimit", func(p *Plan) (*Result, error) { return p.RunLimitRoot(context.Background(), math.MaxInt) }},
	}
	bytesPerRun := func(sizeMB float64, run func(p *Plan) (*Result, error)) uint64 {
		d, err := xmark.Generate(xmark.Config{SizeMB: sizeMB, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		p := compileQuery(t, NewEnv(d), q, &Options{NoIndex: true})
		res, err := run(p) // the first run pays the plan's one column scan
		if err != nil || len(res.Nodes) == 0 {
			t.Fatalf("%s: %d nodes, error %v", q, len(res.Nodes), err)
		}
		// TotalAlloc counts bytes, whoever allocates them: take the least
		// of a few runs so a runtime goroutine cannot inflate the reading.
		least := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&before)
			if _, err := run(p); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	for _, f := range faces {
		small, large := bytesPerRun(0.5, f.run), bytesPerRun(2, f.run)
		t.Logf("%s: %d B at 0.5 MB, %d B at 2 MB (%.1f×)", f.name, small, large, float64(large)/float64(small))
		if large > 8*small {
			t.Errorf("%s under NoIndex: %d B a run at 0.5 MB, %d B at 2 MB: grows faster than the document", f.name, small, large)
		}
	}
}

// TestBlockingPositionalStepMarksBothFaces: a positional step on a
// reverse axis, or from the document node, blocks under a streaming
// cursor and evaluates its whole input in the one body Plan.Run uses, so
// the pushdown decision lands on its operator alike in both modes.
func TestBlockingPositionalStepMarksBothFaces(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(d)
	marked := 0
	for _, q := range []string{
		"/descendant::increase/ancestor::bidder[1]",
		"/descendant::bidder/preceding::increase[2]",
		"/descendant::bidder[3]",
	} {
		for _, opts := range []*Options{nil, {Pushdown: PushAlways}, {Pushdown: PushNever}} {
			p := compileQuery(t, env, q, opts)
			res, err := p.RunRoot()
			if err != nil {
				t.Fatal(err)
			}
			lr, err := p.RunLimitRoot(context.Background(), math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range p.ops {
				pf, ok := o.(*posFilterOp)
				if !ok || !pf.docNode && !pf.step.Axis.Reverse() {
					continue
				}
				run, cur := res.ops[pf.opID()], lr.ops[pf.opID()]
				if !run.ran || run.pushed != (opts == nil || opts.Pushdown != PushNever) {
					t.Errorf("%s %+v: Run marks ran %v pushed %v on the positional step", q, opts, run.ran, run.pushed)
				}
				if cur.pushed != run.pushed || cur.indexed != run.indexed || cur.fragSize != run.fragSize {
					t.Errorf("%s %+v: cursor marks pushed %v indexed %v fragment %d, Run's %v %v %d",
						q, opts, cur.pushed, cur.indexed, cur.fragSize, run.pushed, run.indexed, run.fragSize)
				}
				marked++
			}
		}
	}
	if marked == 0 {
		t.Fatal("no blocking positional step compiled")
	}
}
