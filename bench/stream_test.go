package bench

import (
	"context"
	"testing"

	"staircase/internal/engine"
)

// qStream is the exists-semijoin query class of the streaming
// acceptance criterion: bidders having an increase descendant (the §4.4
// rewritten Q2).
const qStream = "//bidder[descendant::increase]"

// TestEvalFirstWallTime is the streaming acceptance criterion, stated as
// work: EvalLimit(1) on the exists-semijoin query class touches, per
// step, at most the first window its cursor kernels are handed plus the
// context they pulled, while the full evaluation scans at least 20 times
// that bound. (It used to compare two wall-clock medians; the name stays
// for the test floor.)
func TestEvalFirstWallTime(t *testing.T) {
	const firstWindow = 16 // plan's execBatchMin: the first buffer a kernel scans into
	c := NewCorpus()
	d := c.Doc(4)
	d.TagIndex()
	p, err := engine.New(d).PrepareString(qStream, nil)
	if err != nil {
		t.Fatal(err)
	}
	scanned := func(steps []engine.StepReport) (n int64) {
		for _, s := range steps {
			n += s.Core.Scanned
		}
		return n
	}
	full, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Nodes) == 0 {
		t.Fatal("fixture query returned nothing; acceptance criterion vacuous")
	}
	first, err := p.EvalLimit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Nodes) != 1 || first.Nodes[0] != full.Nodes[0] || !first.Truncated {
		t.Fatalf("EvalLimit(1): nodes %v, truncated=%v; want [%d], true", first.Nodes, first.Truncated, full.Nodes[0])
	}
	var bound int64
	for _, s := range first.Steps {
		bound += firstWindow + int64(s.InputSize)
	}
	if got := scanned(first.Steps); got > bound {
		t.Errorf("EvalLimit(1) scanned %d nodes, want <= %d (first window + pulled context per step)", got, bound)
	}
	if got := scanned(full.Steps); got < 20*bound {
		t.Errorf("full evaluation scanned %d nodes, want >= 20 x %d", got, bound)
	}
	t.Logf("full scanned %d, first scanned %d (bound %d)", scanned(full.Steps), scanned(first.Steps), bound)
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
