package bench

import (
	"context"
	"testing"

	"staircase/internal/engine"
)

// TestStreamExperiment smoke-runs the stream experiment table.
func TestStreamExperiment(t *testing.T) {
	tab := Stream(NewCorpus(), []float64{0.25})
	if len(tab.Rows) != 1 {
		t.Fatalf("stream table rows: %d", len(tab.Rows))
	}
}

// TestEvalFirstWallTime is the streaming acceptance criterion:
// EvalLimit(1) on the exists-semijoin query class must complete in
// <= 20% of the full Eval wall time (in practice it is a small fixed
// cost, orders of magnitude below). Measured on a 4 MB document: on
// the 0.5 MB smoke doc the full evaluation is ~10µs, close enough to
// EvalLimit's ~1µs fixed cost that scheduler noise from concurrently
// testing packages can push the ratio over the bar.
func TestEvalFirstWallTime(t *testing.T) {
	c := NewCorpus()
	d := c.Doc(4)
	d.TagIndex()
	e := engine.New(d)
	p, err := e.PrepareString(QStream, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var fullN int
	full := timeIt(7, func() {
		r, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		fullN = len(r.Nodes)
	})
	if fullN == 0 {
		t.Fatal("fixture query returned nothing; acceptance criterion vacuous")
	}
	first := timeIt(7, func() {
		r, err := p.EvalLimit(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Nodes) != 1 || !r.Truncated {
			t.Fatalf("EvalLimit(1): %d nodes, truncated=%v", len(r.Nodes), r.Truncated)
		}
	})
	if limit := full / 5; first > limit {
		t.Fatalf("EvalLimit(1) took %v, over 20%% of full Eval (%v)", first, full)
	}
	t.Logf("full=%v first=%v (%.1f%%)", full, first, 100*float64(first)/float64(full))
}

// TestEvalFirstAllocs: the executor's bounded-memory claim in absolute
// form. EvalFirst on Q1 allocates a fixed few KB of cursor state and
// per-execution stats: at most 4 KiB per call at 16 MB, and within 10 %
// of that at 4 MB — independent of document size, where full evaluation
// materializes result lists that grow with the document. (The bound
// used to be "10 % of full Run's bytes", which held only while the batch
// kernels allocated several times their result.)
func TestEvalFirstAllocs(t *testing.T) {
	c := NewCorpus()
	ctx := context.Background()
	firstBytes := func(mb float64) int64 {
		d := c.Doc(mb)
		d.TagIndex()
		p, err := engine.New(d).PrepareString(Q1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.EvalFirst(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}).AllocedBytesPerOp()
	}
	large, small := firstBytes(16), firstBytes(4)
	t.Logf("EvalFirst: %d B/op at 16 MB, %d B/op at 4 MB", large, small)
	if large > 4<<10 {
		t.Fatalf("EvalFirst allocates %d B/op at 16 MB, want <= 4 KiB", large)
	}
	if diff := large - small; diff*10 > large || -diff*10 > large {
		t.Fatalf("EvalFirst allocates %d B/op at 16 MB but %d B/op at 4 MB: not independent of document size", large, small)
	}
}
