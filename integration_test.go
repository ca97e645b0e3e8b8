// End-to-end integration tests: generator -> shredder/binary store ->
// engine strategies -> extensions, exercised together the way the
// paper's evaluation pipeline uses them.
package staircase_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"staircase/bench"
	"staircase/internal/axis"
	"staircase/internal/catalog"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/engine"
	"staircase/internal/xmark"
)

// integrationQueries is the differential battery: every strategy and
// pushdown mode must agree on every query.
var integrationQueries = []string{
	bench.Q1,
	bench.Q2,
	"/descendant::bidder[descendant::increase]",
	"/site/open_auctions/open_auction/bidder/increase",
	"//open_auction[bidder and reserve]/@id",
	"//person[profile/education or not(profile)]",
	"//increase/ancestor-or-self::*",
	"//education | //increase | //nosuch",
	"//open_auction/bidder[1]/increase",
	"//person[profile]/name/text()",
	"//parlist//listitem//text",
	"//date/preceding-sibling::node()",
}

func TestIntegrationAllStrategiesAgree(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.3, Seed: 77, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(d)
	strategies := []engine.Strategy{
		engine.Staircase, engine.StaircaseSkip, engine.StaircaseNoSkip,
		engine.Naive, engine.SQL, engine.SQLWindow,
	}
	for _, q := range integrationQueries {
		var want []int32
		for _, s := range strategies {
			for _, p := range []engine.Pushdown{engine.PushAuto, engine.PushAlways, engine.PushNever} {
				res, err := e.EvalString(q, &engine.Options{Strategy: s, Pushdown: p})
				if err != nil {
					t.Fatalf("%s [%v/%v]: %v", q, s, p, err)
				}
				if want == nil {
					want = res.Nodes
					continue
				}
				if len(res.Nodes) != len(want) {
					t.Fatalf("%s [%v/%v]: %d nodes, want %d", q, s, p, len(res.Nodes), len(want))
				}
				for i := range want {
					if res.Nodes[i] != want[i] {
						t.Fatalf("%s [%v/%v]: node %d differs", q, s, p, i)
					}
				}
			}
		}
	}
}

func TestIntegrationBinaryStoreServesQueries(t *testing.T) {
	cfg := xmark.Config{SizeMB: 0.2, Seed: 5, KeepValues: true}
	d1, err := xmark.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d1.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := doc.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := engine.New(d1), engine.New(d2)
	for _, q := range integrationQueries {
		r1, err := e1.EvalString(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := e2.EvalString(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Nodes) != len(r2.Nodes) {
			t.Fatalf("%s: binary store changed the result (%d vs %d)", q, len(r1.Nodes), len(r2.Nodes))
		}
	}
}

func TestIntegrationXMLRoundTripServesQueries(t *testing.T) {
	cfg := xmark.Config{SizeMB: 0.1, Seed: 6, KeepValues: true}
	var buf bytes.Buffer
	if err := xmark.Write(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	shredded, err := doc.Shred(&buf)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := xmark.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := engine.New(direct), engine.New(shredded)
	for _, q := range integrationQueries {
		r1, _ := e1.EvalString(q, nil)
		r2, _ := e2.EvalString(q, nil)
		if len(r1.Nodes) != len(r2.Nodes) {
			t.Fatalf("%s: XML round trip changed the result", q)
		}
	}
}

func TestIntegrationConcurrentQueries(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.2, Seed: 8, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(d) // one shared engine: exercises tag-list caching
	ref := map[string]int{}
	for _, q := range integrationQueries {
		r, err := e.EvalString(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref[q] = len(r.Nodes)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range integrationQueries {
				opts := &engine.Options{
					Strategy: []engine.Strategy{engine.Staircase, engine.SQL}[(w+i)%2],
				}
				r, err := e.EvalString(q, opts)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", q, err)
					return
				}
				if len(r.Nodes) != ref[q] {
					errs <- fmt.Errorf("%s: concurrent run got %d nodes, want %d", q, len(r.Nodes), ref[q])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestIntegrationFragmentsAndParallelAgreeWithEngine(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.3, Seed: 12, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(d)

	want, err := e.EvalString(bench.Q2, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bench.TagPath(d, []bench.TagStep{
		{Axis: axis.Descendant, Tag: "increase"},
		{Axis: axis.Ancestor, Tag: "bidder"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Nodes) {
		t.Fatalf("fragment path: %d vs %d", len(got), len(want.Nodes))
	}

	inc, err := e.EvalString("/descendant::increase", nil)
	if err != nil {
		t.Fatal(err)
	}
	seq := core.AncestorJoin(d, inc.Nodes, nil)
	for _, workers := range []int{1, 3, 7} {
		par := core.ParallelAncestorJoin(d, inc.Nodes, workers, nil)
		if len(par) != len(seq) {
			t.Fatalf("parallel(%d): %d vs %d", workers, len(par), len(seq))
		}
	}
}

func TestIntegrationExplainMatchesExecution(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.1, Seed: 4, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(d)
	out, err := e.Explain(bench.Q2, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.EvalString(bench.Q2, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCard := fmt.Sprintf("actual=%d result", len(res.Nodes))
	if !bytes.Contains([]byte(out), []byte(wantCard)) {
		t.Fatalf("explain cardinality does not match execution:\n%s", out)
	}
}

// TestIntegrationIndexAcceptance is the tag/kind-index acceptance bar:
// the same document loaded four ways — from XML text, from a legacy v1
// (SCJ1) file, and from a current v2 (SCJ2) file that carries the
// index section, registered in a catalog with and without eager index
// residency — must produce byte-identical results for every query,
// with the shared index and with the -index=false rescan fallback.
func TestIntegrationIndexAcceptance(t *testing.T) {
	cfg := xmark.Config{SizeMB: 0.2, Seed: 5, KeepValues: true}
	direct, err := xmark.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var v1, v2 bytes.Buffer
	if err := direct.WriteBinaryV1(&v1); err != nil {
		t.Fatal(err)
	}
	if err := direct.WriteBinary(&v2); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "d.xml")
	xf, err := os.Create(xmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := xmark.Write(xf, cfg); err != nil {
		t.Fatal(err)
	}
	xf.Close()
	v1Path := filepath.Join(dir, "d1.scj")
	v2Path := filepath.Join(dir, "d2.scj")
	if err := os.WriteFile(v1Path, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v2Path, v2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Both catalog configurations must sniff and load all three files.
	type loaded struct {
		name string
		eng  *engine.Engine
	}
	var engines []loaded
	for _, withIndex := range []bool{true, false} {
		var opts []catalog.Option
		if !withIndex {
			opts = append(opts, catalog.WithoutIndex())
		}
		cat := catalog.New(0, opts...)
		for name, path := range map[string]string{"xml": xmlPath, "v1": v1Path, "v2": v2Path} {
			if err := cat.Register(name, path, catalog.FormatAuto); err != nil {
				t.Fatal(err)
			}
			h, err := cat.Open(name)
			if err != nil {
				t.Fatalf("index=%v %s: %v", withIndex, name, err)
			}
			t.Cleanup(h.Close)
			engines = append(engines, loaded{fmt.Sprintf("%s/index=%v", name, withIndex), h.Engine()})
		}
	}

	for _, q := range integrationQueries {
		want, err := engine.New(direct).EvalString(q, &engine.Options{Pushdown: engine.PushNever})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range engines {
			for _, opts := range []*engine.Options{
				nil,
				{Pushdown: engine.PushAlways},
				{Pushdown: engine.PushAlways, NoIndex: true},
			} {
				got, err := l.eng.EvalString(q, opts)
				if err != nil {
					t.Fatalf("%s [%s]: %v", q, l.name, err)
				}
				if len(got.Nodes) != len(want.Nodes) {
					t.Fatalf("%s [%s opts=%+v]: %d nodes, want %d", q, l.name, opts, len(got.Nodes), len(want.Nodes))
				}
				for i := range want.Nodes {
					if got.Nodes[i] != want.Nodes[i] {
						t.Fatalf("%s [%s opts=%+v]: node %d differs", q, l.name, opts, i)
					}
				}
			}
		}
	}
}
