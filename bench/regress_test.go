package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestCheckRegression(t *testing.T) {
	baseline := []BenchPoint{
		{Name: "A", NsPerOp: 1000}, {Name: "B", NsPerOp: 1000},
		{Name: "C", NsPerOp: 1000}, {Name: "D", NsPerOp: 1000},
		{Name: "E", NsPerOp: 1000}, {Name: "F", NsPerOp: 1000},
	}
	current := []BenchPoint{
		{Name: "A", NsPerOp: 1050}, // +5%: fine
		{Name: "B", NsPerOp: 1400}, // +40%: regression
		{Name: "C", NsPerOp: 1000}, {Name: "D", NsPerOp: 990},
		{Name: "E", NsPerOp: 1010}, {Name: "F", NsPerOp: 1020},
		{Name: "New", NsPerOp: 999}, // not in baseline: ignored
	}
	failures := CheckRegression(baseline, current, 0.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "B:") {
		t.Fatalf("want exactly one failure for B, got %v", failures)
	}

	// A uniformly slower machine shifts the whole family: no failures.
	slower := make([]BenchPoint, len(baseline))
	for i, b := range baseline {
		slower[i] = BenchPoint{Name: b.Name, NsPerOp: b.NsPerOp * 1.6}
	}
	if f := CheckRegression(baseline, slower, 0.25); len(f) != 0 {
		t.Fatalf("uniform machine slowdown flagged as regression: %v", f)
	}
	// ...but one benchmark regressing on top of that still sticks out.
	slower[1].NsPerOp = baseline[1].NsPerOp * 1.6 * 1.5
	if f := CheckRegression(baseline, slower, 0.25); len(f) != 1 || !strings.Contains(f[0], "B:") {
		t.Fatalf("regression on slow machine not isolated: %v", f)
	}

	// A uniformly faster machine must not flag an unchanged benchmark.
	faster := make([]BenchPoint, len(baseline))
	for i, b := range baseline {
		faster[i] = BenchPoint{Name: b.Name, NsPerOp: b.NsPerOp * 0.5}
	}
	faster[0].NsPerOp = baseline[0].NsPerOp // A unchanged while family sped up
	if f := CheckRegression(baseline, faster, 0.25); len(f) != 0 {
		t.Fatalf("faster machine produced false regressions: %v", f)
	}

	if f := CheckRegression(baseline, current[:3], 10.0); len(f) != 3 {
		t.Fatalf("missing benchmarks not reported: %v", f)
	}
	if f := CheckRegression(nil, current, 0.25); len(f) != 0 {
		t.Fatalf("empty baseline produced failures: %v", f)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	points := []BenchPoint{{Name: "X", NsPerOp: 123.5}, {Name: "Y", NsPerOp: 9}}
	var buf bytes.Buffer
	if err := WriteBaseline(&buf, points, 3); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBaseline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Family != "staircase-join-smoke" || b.Runs != 3 || len(b.Points) != 2 {
		t.Fatalf("round-trip: %+v", b)
	}
	if b.Points[0] != points[0] || b.Points[1] != points[1] {
		t.Fatalf("points changed: %+v", b.Points)
	}
	if _, err := ReadBaseline(strings.NewReader(`{"family":"x","points":[]}`)); err == nil {
		t.Fatal("empty baseline accepted")
	}
}

func TestSmokeFamilyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark measurement in -short mode")
	}
	// One b.N=1-scale run per family member just to prove the gate's
	// benchmark bodies execute; the real measurement happens in CI.
	c := NewCorpus()
	fam := smokeFamily(c)
	if len(fam) != 23 {
		t.Fatalf("family has %d members, want 23", len(fam))
	}
	for _, bm := range fam {
		bm.fn(&testing.B{N: 1})
	}
}

func TestCompareRecordsTrajectory(t *testing.T) {
	base := Baseline{
		Family: "f", SizeMB: 0.5, Runs: 5,
		Points: []BenchPoint{
			{Name: "A", NsPerOp: 100}, {Name: "B", NsPerOp: 100},
			{Name: "C", NsPerOp: 100}, {Name: "Gone", NsPerOp: 50},
		},
	}
	current := []BenchPoint{
		{Name: "A", NsPerOp: 100}, // unchanged
		{Name: "B", NsPerOp: 200}, // regressed 2x (sticks out of the family median)
		{Name: "C", NsPerOp: 100}, // unchanged
		{Name: "New", NsPerOp: 10},
	}
	cmp := Compare(base, current, 0.25)
	if cmp.Passed {
		t.Fatal("comparison with a regression and a missing benchmark must fail")
	}
	if cmp.Family != "f" || cmp.SizeMB != 0.5 || cmp.Runs != 5 || cmp.Tolerance != 0.25 {
		t.Fatalf("metadata not carried: %+v", cmp)
	}
	byName := map[string]ComparisonPoint{}
	for _, p := range cmp.Points {
		byName[p.Name] = p
	}
	if p := byName["A"]; p.Regressed || p.Ratio != 1 {
		t.Fatalf("A misjudged: %+v", p)
	}
	if p := byName["B"]; !p.Regressed || p.Ratio != 2 {
		t.Fatalf("B misjudged: %+v", p)
	}
	if p := byName["Gone"]; !p.Missing {
		t.Fatalf("Gone misjudged: %+v", p)
	}
	if p := byName["New"]; !p.New || p.CurrentNs != 10 {
		t.Fatalf("New misjudged: %+v", p)
	}
	// Compare and CheckRegression agree by construction.
	if got := CheckRegression(base.Points, current, 0.25); len(got) != len(cmp.Failures) {
		t.Fatalf("CheckRegression diverged: %v vs %v", got, cmp.Failures)
	}
}
