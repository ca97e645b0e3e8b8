// Benchmark-regression gate: a small, fixed family of staircase-join
// benchmarks that CI measures on every commit and compares against a
// committed baseline (BENCH_baseline.json). The family covers the four
// partitioning-axis joins, full Q1/Q2 engine evaluation, the
// tag/kind-index hot path (warm index-backed pushdown, the cold rescan
// baseline, and the index build itself), the value-index hot path
// (warm value-fragment semijoin, the per-node re-evaluation baseline,
// the value-index build, and top-1 contains() latency), the greedy
// filter-ordering hot path (warm reordered evaluation, the
// source-order baseline, and the adaptive re-planning cursor drain),
// plan compilation, the query server's warm plan-cache request path and
// the shared-scan fan-out (8 coalesced cold streams per op) — i.e. the
// hot paths every perf-oriented PR touches. cmd/benchrun
// drives it via -gate / -write-baseline and publishes the full Compare
// record for CI.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/engine"
	"staircase/internal/index"
)

// BenchPoint is one benchmark measurement, JSON-stable for baselines.
type BenchPoint struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"nsPerOp"`
}

// Baseline is the persisted form of a gate run (BENCH_baseline.json).
type Baseline struct {
	Family string       `json:"family"`
	SizeMB float64      `json:"sizeMB"`
	Runs   int          `json:"runs"`
	Points []BenchPoint `json:"points"`
}

// smokeSizeMB is the document size of the gate family: big enough that
// per-op time is dominated by the join scans, small enough that the
// whole gate (family × runs) finishes in well under a minute.
const smokeSizeMB = 0.5

// heavySizeMB is the document size of the PlanRunHeavy points: out of
// L2, where bytes moved and not comparisons set the kernels' cost.
const heavySizeMB = 16

// HeavyQueries are prepared plans whose cost is the batch kernels' own:
// the document-wide scans and two two-step paths of the repository
// benchmark's axes_batch workload. The first two are gate points; root
// bench_test.go's BenchmarkPlanRunHeavy runs all four.
var HeavyQueries = []struct{ Name, Query string }{
	{"desc-node", "/descendant::node()"},
	{"text-anc-node", "/descendant::text()/ancestor::node()"},
	{"bidder-desc-increase", "/descendant::bidder/descendant::increase"},
	{"open_auction-desc-bidder", "/descendant::open_auction/descendant::bidder"},
}

// smokeFamily enumerates the gated benchmarks over one corpus document
// (and, for the PlanRunHeavy points, its 16 MB sibling).
func smokeFamily(c *Corpus) []struct {
	name string
	fn   func(b *testing.B)
} {
	d := c.Doc(smokeSizeMB)
	cx := getContexts(d)
	e := engine.New(d)
	d.TagIndex() // warm the shared index so Warm runs measure steady state
	evalQ := func(q string, opts *engine.Options) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.EvalString(q, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// The value-index family runs over the values-retained twin of the
	// smoke document (Doc drops values; value predicates need them).
	vd := c.ValueDoc(smokeSizeMB)
	ve := engine.New(vd)
	vd.TagIndex()
	vd.ValueIndex() // warm so the Warm run measures steady state
	// Value benchmarks run prepared plans (the server's steady state):
	// the warm plan materialises its value fragment once, so per-op
	// time is the semijoin probes, not the index range read.
	evalV := func(q string, opts *engine.Options) func(b *testing.B) {
		return func(b *testing.B) {
			p, err := ve.PrepareString(q, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	runHeavy := func(q string) func(b *testing.B) {
		return func(b *testing.B) {
			p, err := engine.New(c.Doc(heavySizeMB)).PrepareString(q, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"PlanRunHeavyDescNode", runHeavy(HeavyQueries[0].Query)},
		{"PlanRunHeavyTextAncNode", runHeavy(HeavyQueries[1].Query)},
		{"StaircaseDescendant", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.DescendantJoin(d, cx.profiles, nil)
			}
		}},
		{"StaircaseAncestor", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.AncestorJoin(d, cx.increases, nil)
			}
		}},
		{"StaircaseFollowing", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.FollowingJoin(d, cx.increases, nil)
			}
		}},
		{"StaircasePreceding", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.PrecedingJoin(d, cx.increases, nil)
			}
		}},
		{"EngineQ1", evalQ(Q1, nil)},
		{"EngineQ2", evalQ(Q2, nil)},
		// The index hot path: warm = fragments from the shared tag/kind
		// index; cold = per-query name-column rescans, the pre-index
		// behaviour every fresh engine/doc-load used to pay.
		{"EnginePushdownWarm", evalQ(Q1, &engine.Options{Pushdown: engine.PushAlways})},
		{"EnginePushdownCold", evalQ(Q1, &engine.Options{Pushdown: engine.PushAlways, NoIndex: true})},
		// The value-index hot path: warm = pre-sorted fragments from the
		// string/numeric value partitions semijoined against the context;
		// rescan = Options.NoValueIndex, the predicate sub-plan running
		// once per candidate node.
		{"ValuePushdownWarm", evalV(QValueRange, nil)},
		{"ValuePushdownRescan", evalV(QValueRange, &engine.Options{NoValueIndex: true})},
		// The ordering hot path: warm = the greedy pass hoists the
		// selective trailing comparison to the front of the filter
		// chain; rescan = Options.NoReorder, source-order evaluation
		// sweeping every candidate through the broad filter first.
		{"PlanOrderWarm", evalV(QOrderLate, nil)},
		{"PlanOrderRescan", evalV(QOrderLate, &engine.Options{NoReorder: true})},
		// The adaptive chain cursor: a full drain whose observed
		// selectivities collapse against the halving estimates, so
		// every op pays one mid-flight re-plan.
		{"AdaptiveReplan", func(b *testing.B) {
			p, err := ve.PrepareString(QOrderAdapt, nil)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.EvalLimit(ctx, math.MaxInt); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ValueIndexBuild", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if vd.RebuildValueIndex() == nil {
					b.Fatal("value index build returned nil")
				}
			}
		}},
		// Top-1 contains(): first-result latency through the streaming
		// executor with the substring fragment feeding the semijoin.
		{"ContainsFirstResult", func(b *testing.B) {
			p, err := ve.PrepareString(QValueContains, nil)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := p.EvalLimit(ctx, 1)
				if err != nil {
					b.Fatal(err)
				}
				if len(r.Nodes) != 1 {
					b.Fatal("no first result")
				}
			}
		}},
		{"IndexBuild", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix := index.Build(d.KindSlice(), d.NameSlice(), d.Names().Len(), doc.NumKinds, doc.Elem)
				if ix.Entries() != int64(d.Size()) {
					b.Fatal("index build incomplete")
				}
			}
		}},
		// The plan pipeline: logical build + rewrite + physical
		// compilation for Q1 (no execution) — the per-request planner
		// cost the compiled-query and prepared-plan caches amortise.
		{"PlanCompile", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cq, err := engine.Compile(Q1)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.Prepare(cq, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The server's fully warm request path: compiled-query,
		// prepared-plan and result caches all primed, one POST /query
		// round trip through the handler per op.
		{"ServerWarmPlan", serverWarmBench(d)},
		// The streaming executor: time-to-first-result of an
		// exists-semijoin query (the kernels must stop after the first
		// satisfying batch), and full-result cursor drain throughput
		// (streaming must not tax callers who do want everything).
		{"FirstResultLatency", func(b *testing.B) {
			p, err := e.PrepareString(QStream, nil)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := p.EvalLimit(ctx, 1)
				if err != nil {
					b.Fatal(err)
				}
				if len(r.Nodes) != 1 {
					b.Fatal("no first result")
				}
			}
		}},
		// Shared-scan execution: 8 concurrent identical cold /stream
		// requests per op through the pace-car registry (one flight,
		// follower replays).
		{"CoalescedColdFanout", coalescedFanoutBench(d)},
		{"StreamThroughput", func(b *testing.B) {
			// Whole-document drain: tens of batches per op, so the
			// measurement reflects steady-state batch throughput rather
			// than cursor setup.
			p, err := e.PrepareString("/descendant-or-self::node()", nil)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur, err := p.Cursor(ctx)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					batch, err := cur.Next()
					if err != nil {
						b.Fatal(err)
					}
					if batch == nil {
						break
					}
					n += len(batch)
				}
				if n == 0 {
					b.Fatal("empty drain")
				}
			}
		}},
	}
}

// RunSmoke measures the gate family. Each benchmark runs `runs` times
// and the fastest run is reported — the same noise-robust statistic
// timeIt uses for the paper experiments: scheduler preemption and
// frequency scaling only ever make code *slower*, so the minimum tracks
// the code's true cost far more stably than the mean (and, on shared
// runners, than the median of few runs).
func RunSmoke(c *Corpus, runs int) []BenchPoint {
	if runs < 1 {
		runs = 1
	}
	var points []BenchPoint
	for _, bm := range smokeFamily(c) {
		samples := make([]float64, 0, runs)
		for r := 0; r < runs; r++ {
			res := testing.Benchmark(bm.fn)
			samples = append(samples, float64(res.NsPerOp()))
		}
		sort.Float64s(samples)
		points = append(points, BenchPoint{Name: bm.name, NsPerOp: samples[0]})
	}
	return points
}

// CheckRegression compares current measurements against a baseline and
// returns one message per benchmark regressing by more than tol
// (0.25 = 25%). Benchmarks missing from the current run also fail;
// benchmarks new since the baseline are ignored (they gate once the
// baseline is regenerated).
//
// The baseline host and the measuring host (a CI runner) generally
// differ in absolute speed, which shifts every benchmark of the family
// by roughly the same factor. The check therefore normalises each
// current/baseline ratio by the family's median ratio before applying
// the tolerance — a code regression hits specific benchmarks and sticks
// out of the family trend, while a uniformly slower machine does not.
// The scale is clamped at 1 so that a uniformly *faster* machine (or a
// PR that genuinely speeds up half the family) never turns unchanged
// benchmarks into false regressions.
func CheckRegression(baseline, current []BenchPoint, tol float64) []string {
	return Compare(Baseline{Points: baseline}, current, tol).Failures
}

// ComparisonPoint is one benchmark's baseline-vs-current record in a
// gate comparison.
type ComparisonPoint struct {
	Name       string  `json:"name"`
	BaselineNs float64 `json:"baselineNsPerOp,omitempty"`
	CurrentNs  float64 `json:"currentNsPerOp,omitempty"`
	// Ratio is current/baseline before machine normalisation;
	// NormalizedRatio divides out the family-median scale — the number
	// the tolerance is applied to.
	Ratio           float64 `json:"ratio,omitempty"`
	NormalizedRatio float64 `json:"normalizedRatio,omitempty"`
	// Regressed: the normalized ratio exceeded the tolerance. Missing:
	// in the baseline but not measured. New: measured but not yet in
	// the baseline (not gated).
	Regressed bool `json:"regressed,omitempty"`
	Missing   bool `json:"missing,omitempty"`
	New       bool `json:"new,omitempty"`
}

// Comparison is the full record of one gate run against a baseline —
// what CI publishes as a per-PR artifact so the performance trajectory
// of the gated family stays inspectable without rerunning anything.
type Comparison struct {
	Family    string            `json:"family,omitempty"`
	SizeMB    float64           `json:"sizeMB,omitempty"`
	Runs      int               `json:"runs,omitempty"`
	Tolerance float64           `json:"tolerance"`
	Scale     float64           `json:"machineScale"`
	Passed    bool              `json:"passed"`
	Points    []ComparisonPoint `json:"points"`
	Failures  []string          `json:"failures,omitempty"`
}

// Compare evaluates current measurements against a baseline with the
// CheckRegression policy and returns the full per-benchmark record.
func Compare(baseline Baseline, current []BenchPoint, tol float64) Comparison {
	cur := make(map[string]float64, len(current))
	for _, p := range current {
		cur[p.Name] = p.NsPerOp
	}
	var ratios []float64
	for _, b := range baseline.Points {
		if c, ok := cur[b.Name]; ok && b.NsPerOp > 0 {
			ratios = append(ratios, c/b.NsPerOp)
		}
	}
	scale := 1.0
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		if m := ratios[len(ratios)/2]; m > scale {
			scale = m
		}
	}
	cmp := Comparison{
		Family:    baseline.Family,
		SizeMB:    baseline.SizeMB,
		Runs:      baseline.Runs,
		Tolerance: tol,
		Scale:     scale,
	}
	seen := make(map[string]bool, len(baseline.Points))
	for _, b := range baseline.Points {
		seen[b.Name] = true
		p := ComparisonPoint{Name: b.Name, BaselineNs: b.NsPerOp}
		c, ok := cur[b.Name]
		if !ok {
			p.Missing = true
			cmp.Failures = append(cmp.Failures, fmt.Sprintf("%s: present in baseline but not measured", b.Name))
			cmp.Points = append(cmp.Points, p)
			continue
		}
		p.CurrentNs = c
		if b.NsPerOp > 0 {
			p.Ratio = c / b.NsPerOp
			p.NormalizedRatio = p.Ratio / scale
			if p.NormalizedRatio > 1+tol {
				p.Regressed = true
				cmp.Failures = append(cmp.Failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (+%.1f%% after %.2fx machine normalisation, limit +%.0f%%)",
					b.Name, c, b.NsPerOp, 100*(p.NormalizedRatio-1), scale, 100*tol))
			}
		}
		cmp.Points = append(cmp.Points, p)
	}
	for _, p := range current {
		if !seen[p.Name] {
			cmp.Points = append(cmp.Points, ComparisonPoint{Name: p.Name, CurrentNs: p.NsPerOp, New: true})
		}
	}
	cmp.Passed = len(cmp.Failures) == 0
	return cmp
}

// WriteBaseline serializes a gate run.
func WriteBaseline(w io.Writer, points []BenchPoint, runs int) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Baseline{
		Family: "staircase-join-smoke",
		SizeMB: smokeSizeMB,
		Runs:   runs,
		Points: points,
	})
}

// ReadBaseline deserializes a gate baseline.
func ReadBaseline(r io.Reader) (Baseline, error) {
	var b Baseline
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return Baseline{}, err
	}
	if len(b.Points) == 0 {
		return Baseline{}, fmt.Errorf("baseline has no benchmark points")
	}
	return b, nil
}
