package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"staircase"
)

// None of these tests asserts a wall-clock value: they check that the
// scripts are deterministic, that the arithmetic is right, that the
// classes sit where the construction puts them (by label, at a rank),
// and that the names the benchmark prints are the ones BENCHMARK.json
// declares.

// fullScript builds a workload's full-size script without generating
// the corpus: the scripts only need its entity counts.
func fullScript(t *testing.T, w *workload, seed int64) *script {
	t.Helper()
	mb := w.corpusMB(false)
	s, err := w.buildScript(seed, &corpus{people: int(mb * 255), auctions: int(mb * 120)}, false)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScriptsAreSeedDetermined(t *testing.T) {
	pinned := map[string]string{
		"axes_batch":     "647a42b7e7bb5a47",
		"stream_first_k": "d7147f6657dee9b7",
		"serve_hot":      "d2839e5243e77693",
		"serve_adhoc":    "07732f1fc18d808d",
	}
	for i := range workloads {
		w := &workloads[i]
		a, b, other := fullScript(t, w, 1), fullScript(t, w, 1), fullScript(t, w, 2)
		if a.hash() != b.hash() {
			t.Errorf("%s: seed 1 gave scripts %s and %s", w.name, a.hash(), b.hash())
		}
		if a.hash() != pinned[w.name] {
			t.Errorf("%s: seed 1 script hash is %s, pinned %s", w.name, a.hash(), pinned[w.name])
		}
		if a.hash() == other.hash() {
			t.Errorf("%s: seeds 1 and 2 gave the same script", w.name)
		}
		for _, ops := range a.passes {
			if len(ops) != w.passOps {
				t.Errorf("%s: pass has %d ops, want %d", w.name, len(ops), w.passOps)
			}
			nHeavy := 0
			for _, qi := range ops {
				if a.queries[qi].class == heavy {
					nHeavy++
				}
			}
			if share := float64(nHeavy) / float64(len(ops)); math.Abs(share-0.2) > 0.005 {
				t.Errorf("%s: heavy share of a pass is %.4f, want 0.2", w.name, share)
			}
		}
	}
}

func TestServeAdhocQueriesAreDistinct(t *testing.T) {
	w := findWorkload("serve_adhoc")
	s := fullScript(t, w, 1)
	if n := s.numOps(); n != 6144 || len(s.queries) != n {
		t.Fatalf("cycle has %d ops over %d queries, want 6144 distinct", n, len(s.queries))
	}
	d, err := staircase.GenerateXMark(0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]string, len(s.queries))
	for _, q := range s.queries {
		p, err := d.Prepare(q.text, nil)
		if err != nil {
			t.Fatalf("%s: %v", q.text, err)
		}
		if prev, dup := seen[p.Canon()]; dup {
			t.Fatalf("%s and %s share the canonical plan %s", prev, q.text, p.Canon())
		}
		seen[p.Canon()] = q.text
	}
}

func TestStatsArithmetic(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.05, 1}, {1, 10}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	if got, want := spread(sorted), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	if got, want := spread([]float64{10, 12, 11}), 2.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want %v", got, want)
	}
	if got := slope([]float64{1, 2, 3}, []float64{5, 7, 9}); math.Abs(got-2) > 1e-12 {
		t.Errorf("slope = %v, want 2", got)
	}
}

func TestDigestBody(t *testing.T) {
	want := digestOf([]int32{3, 17, 256, 70000})
	query := `{"doc":"d","generation":1,"results":[{"query":"//a[b > 3]","count":4,"nodes":[3,17,256,70000],"cached":false,"elapsedNs":12}]}`
	stream := "{\"nodes\":[3,17]}\n{\"nodes\":[256,70000]}\n{\"done\":true,\"count\":4}\n"
	for _, body := range []string{query, stream} {
		got, err := digestBody([]byte(body))
		if err != nil || got != want {
			t.Errorf("digestBody(%s) = %+v, %v; want %+v", body, got, err, want)
		}
	}
	if got, _ := digestBody([]byte(`{"results":[{"nodes":[5,4]}]}`)); got.ordered {
		t.Error("decreasing ranks were accepted as ordered")
	}
	if _, err := digestBody([]byte(`{"results":[{"query":"x","nodes":[],"error":"boom"}]}`)); err == nil {
		t.Error("an error member did not fail the operation")
	}
	if got, err := digestBody([]byte(`{"results":[{"nodes":[]}]}`)); err != nil || got != newDigest() {
		t.Errorf("empty result: %+v, %v", got, err)
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func TestNamesMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the benchmark %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || !valid.MatchString(w.Name) {
			t.Errorf("workload %d: manifest %q, benchmark %q", i, w.Name, workloads[i].name)
		}
		if w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %s: the manifest's why differs from the benchmark's or exceeds 200 characters", w.Name)
		}
	}
	compare := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if !valid.MatchString(g.Name) {
				t.Errorf("%s: invalid name %q", kind, g.Name)
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s metric %d: manifest %+v, benchmark %+v", kind, i, g, w)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd)
	compare("per_layer", m.PerLayer, perLayer)
}

// TestSmoke runs every workload on tiny corpora, untraced and traced:
// no operation may fail, most operations around the 50th latency
// percentile must carry the light label and most of the slowest fifth
// the heavy label, and the metrics reported must be exactly the declared
// ones.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w, runConfig{seed: 7, seconds: 1, smoke: true, trace: trace, workdir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.name, trace, res.failed, res.attempted, res.firstErr)
			}
			defs := reported(trace)
			if len(res.metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.name, trace, len(res.metrics), len(defs))
			}
			for _, def := range defs {
				m, ok := res.metrics[def.name]
				if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s trace=%v: metric %s missing or not a number (%v)", w.name, trace, def.name, m.value)
				}
				if !trace && m.value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, def.name, m.value)
				}
			}
			if !trace && (res.classAtP50 != light || res.classAtP90 != heavy) {
				t.Errorf("%s: the operations around p50 are %v and around p90 %v, want light and heavy", w.name, res.classAtP50, res.classAtP90)
			}
		}
	}
}
