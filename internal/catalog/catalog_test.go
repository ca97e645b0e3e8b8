package catalog

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"staircase/internal/doc"
	"staircase/internal/xmark"
)

const testXML = `<site><people>` +
	`<person id="p0"><profile><education>High School</education></profile></person>` +
	`<person id="p1"><profile><education>College</education></profile></person>` +
	`<person id="p2"><profile/></person>` +
	`</people></site>`

func writeXML(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(testXML), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeBinary(t *testing.T, name string) string {
	t.Helper()
	d, err := doc.Shred(strings.NewReader(testXML))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := d.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLazyLoadAndQuery(t *testing.T) {
	c := New(0)
	if err := c.Register("people", writeXML(t, "p.xml"), FormatAuto); err != nil {
		t.Fatal(err)
	}
	info := c.Info()
	if len(info) != 1 || info[0].Resident || info[0].Loads != 0 {
		t.Fatalf("expected unloaded entry, got %+v", info)
	}
	h, err := c.Open("people")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	r, err := h.Engine().EvalString("/descendant::education", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Nodes) != 2 {
		t.Fatalf("got %d education nodes, want 2", len(r.Nodes))
	}
	info = c.Info()
	if !info[0].Resident || info[0].Loads != 1 || info[0].Format != "xml" || info[0].Generation != 1 {
		t.Fatalf("after load: %+v", info[0])
	}
	if info[0].Nodes != h.Document().Size() {
		t.Fatalf("info nodes %d != doc size %d", info[0].Nodes, h.Document().Size())
	}
}

func TestBinarySniffMatchesXML(t *testing.T) {
	c := New(0)
	if err := c.Register("xml", writeXML(t, "p.xml"), FormatAuto); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("bin", writeBinary(t, "p.scj"), FormatAuto); err != nil {
		t.Fatal(err)
	}
	hx, err := c.Open("xml")
	if err != nil {
		t.Fatal(err)
	}
	defer hx.Close()
	hb, err := c.Open("bin")
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	for _, e := range c.Info() {
		want := map[string]string{"xml": "xml", "bin": "binary"}[e.Name]
		if e.Format != want {
			t.Fatalf("doc %s: sniffed format %s, want %s", e.Name, e.Format, want)
		}
	}
	for _, q := range []string{"/descendant::person", "//person[profile/education]", "/descendant::education/ancestor::person"} {
		rx, err := hx.Engine().EvalString(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := hb.Engine().EvalString(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rx.Nodes) != len(rb.Nodes) {
			t.Fatalf("%s: xml %d nodes, binary %d", q, len(rx.Nodes), len(rb.Nodes))
		}
		for i := range rx.Nodes {
			if rx.Nodes[i] != rb.Nodes[i] {
				t.Fatalf("%s: node %d differs", q, i)
			}
		}
	}
}

func TestEvictionAndGeneration(t *testing.T) {
	c := New(1) // 1-byte budget: nothing stays resident once released
	if err := c.Register("a", writeXML(t, "a.xml"), FormatAuto); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("b", writeXML(t, "b.xml"), FormatAuto); err != nil {
		t.Fatal(err)
	}

	ha, err := c.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	// While referenced, a must survive even over budget.
	if hb, err := c.Open("b"); err != nil {
		t.Fatal(err)
	} else {
		hb.Close()
	}
	byName := func(name string) DocInfo {
		for _, e := range c.Info() {
			if e.Name == name {
				return e
			}
		}
		t.Fatalf("no entry %s", name)
		return DocInfo{}
	}
	if !byName("a").Resident {
		t.Fatal("entry a evicted while referenced")
	}
	if byName("b").Resident {
		t.Fatal("entry b not evicted after release over budget")
	}
	gen := ha.Generation()
	ha.Close()
	if byName("a").Resident {
		t.Fatal("entry a not evicted after release over budget")
	}
	ha2, err := c.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	defer ha2.Close()
	if ha2.Generation() != gen+1 {
		t.Fatalf("reload generation %d, want %d", ha2.Generation(), gen+1)
	}
	if e := byName("a"); e.Loads != 2 || e.Evictions != 1 {
		t.Fatalf("entry a stats: %+v", e)
	}
}

func TestAddDocumentPinned(t *testing.T) {
	c := New(1)
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.05, Seed: 7, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddDocument("gen", d); err != nil {
		t.Fatal(err)
	}
	h, err := c.Open("gen")
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if info := c.Info(); !info[0].Resident || !info[0].Pinned {
		t.Fatalf("pinned doc evicted: %+v", info[0])
	}
}

func TestErrors(t *testing.T) {
	c := New(0)
	if _, err := c.Open("missing"); err == nil {
		t.Fatal("Open of unknown doc succeeded")
	}
	if err := c.Register("", "x", FormatAuto); err == nil {
		t.Fatal("Register with empty name succeeded")
	}
	if err := c.Register("dup", writeXML(t, "d.xml"), FormatAuto); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("dup", "other", FormatAuto); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
	if err := c.Register("bad", filepath.Join(t.TempDir(), "absent.xml"), FormatAuto); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open("bad"); err == nil {
		t.Fatal("Open of absent file succeeded")
	}
	// A failed load must not leak a reference: the entry stays evictable.
	for _, e := range c.Info() {
		if e.Name == "bad" && (e.Resident || e.Loads != 0) {
			t.Fatalf("failed load left state: %+v", e)
		}
	}
}

func TestConcurrentOpenLoadsOnce(t *testing.T) {
	c := New(0)
	if err := c.Register("p", writeXML(t, "p.xml"), FormatAuto); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := c.Open("p")
			if err != nil {
				t.Error(err)
				return
			}
			defer h.Close()
			r, err := h.Engine().EvalString("/descendant::person", nil)
			if err != nil {
				t.Error(err)
				return
			}
			if len(r.Nodes) != 3 {
				t.Errorf("got %d persons, want 3", len(r.Nodes))
			}
		}()
	}
	wg.Wait()
	if info := c.Info(); info[0].Loads != 1 {
		t.Fatalf("loaded %d times, want 1", info[0].Loads)
	}
}

func TestIndexResidencyAccounting(t *testing.T) {
	// Index bytes count against the budget and show up in stats, for
	// XML sources (index built at load) and SCJ2 sources (index
	// deserialized from the file) alike.
	for _, src := range []struct {
		name string
		path func(t *testing.T) string
	}{
		{"xml", func(t *testing.T) string { return writeXML(t, "d.xml") }},
		{"scj2", func(t *testing.T) string { return writeBinary(t, "d.scj") }},
	} {
		t.Run(src.name, func(t *testing.T) {
			c := New(0)
			if err := c.Register("d", src.path(t), FormatAuto); err != nil {
				t.Fatal(err)
			}
			h, err := c.Open("d")
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			d := h.Document()
			if !d.IndexBuilt() {
				t.Fatal("index not resident after load")
			}
			wantIdx := d.IndexBytes()
			if wantIdx <= 0 {
				t.Fatal("IndexBytes = 0 for a resident index")
			}
			if got := c.IndexBytes(); got != wantIdx {
				t.Fatalf("catalog IndexBytes = %d, want %d", got, wantIdx)
			}
			if !d.ValueIndexBuilt() {
				t.Fatal("value index not resident after load")
			}
			wantVIdx := d.ValueIndexBytes()
			if wantVIdx <= 0 {
				t.Fatal("ValueIndexBytes = 0 for a resident value index")
			}
			if got := c.ValueIndexBytes(); got != wantVIdx {
				t.Fatalf("catalog ValueIndexBytes = %d, want %d", got, wantVIdx)
			}
			wantVal := d.ValueBytes()
			if wantVal <= 0 {
				t.Fatal("ValueBytes = 0 for a value-bearing document")
			}
			if got, want := c.ResidentBytes(), d.EncodedBytes()+wantVal+wantIdx+wantVIdx; got != want {
				t.Fatalf("ResidentBytes = %d, want encoding+values+indexes = %d", got, want)
			}
			info := c.Info()
			if len(info) != 1 || info[0].IndexBytes != wantIdx || info[0].VIndexBytes != wantVIdx ||
				info[0].ValueBytes != wantVal || info[0].Bytes != d.EncodedBytes()+wantVal+wantIdx+wantVIdx {
				t.Fatalf("info = %+v", info[0])
			}
		})
	}
}

func TestWithoutIndexSkipsBuild(t *testing.T) {
	c := New(0, WithoutIndex())
	if err := c.Register("d", writeXML(t, "d.xml"), FormatAuto); err != nil {
		t.Fatal(err)
	}
	h, err := c.Open("d")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Document().IndexBuilt() {
		t.Fatal("WithoutIndex catalog built the index at load")
	}
	if c.IndexBytes() != 0 {
		t.Fatalf("IndexBytes = %d, want 0", c.IndexBytes())
	}
	if got, want := c.ResidentBytes(), h.Document().EncodedBytes()+h.Document().ValueBytes()+h.Document().ValueIndexBytes(); got != want {
		t.Fatalf("ResidentBytes = %d, want %d", got, want)
	}
}

func TestWithoutValueIndexSkipsBuild(t *testing.T) {
	c := New(0, WithoutValueIndex())
	if err := c.Register("d", writeXML(t, "d.xml"), FormatAuto); err != nil {
		t.Fatal(err)
	}
	h, err := c.Open("d")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Document().ValueIndexBuilt() {
		t.Fatal("WithoutValueIndex catalog built the value index at load")
	}
	if c.ValueIndexBytes() != 0 {
		t.Fatalf("ValueIndexBytes = %d, want 0", c.ValueIndexBytes())
	}
	if got, want := c.ResidentBytes(), h.Document().EncodedBytes()+h.Document().ValueBytes()+h.Document().IndexBytes(); got != want {
		t.Fatalf("ResidentBytes = %d, want %d", got, want)
	}
}

func TestEvictionReclaimsIndexBytes(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.scj")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Budget below one resident document: the entry must be evicted as
	// soon as it is unreferenced, and index bytes must drop to zero.
	c := New(1, Option(func(c *Catalog) {})) // exercise variadic options path
	if err := c.Register("d", path, FormatAuto); err != nil {
		t.Fatal(err)
	}
	h, err := c.Open("d")
	if err != nil {
		t.Fatal(err)
	}
	if c.IndexBytes() == 0 {
		t.Fatal("no index bytes while resident")
	}
	h.Close()
	if got := c.ResidentBytes(); got != 0 {
		t.Fatalf("ResidentBytes = %d after eviction", got)
	}
	if got := c.IndexBytes(); got != 0 {
		t.Fatalf("IndexBytes = %d after eviction", got)
	}
}

// TestEvictionCountsNodeValues: the value column is part of what a
// document costs to keep. With a budget that holds the encodings and
// indexes of two value-bearing documents but not their values as well
// — what the catalog used to charge, and so kept both — opening the
// second must evict the first.
func TestEvictionCountsNodeValues(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.05, Seed: 1, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := d.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	withoutValues := d.EncodedBytes() + d.IndexBytes() + d.ValueIndexBytes()
	if d.ValueBytes() <= 0 || d.ValueBytes() >= withoutValues {
		t.Fatalf("ValueBytes = %d beside %d of encoding and indexes", d.ValueBytes(), withoutValues)
	}
	c := New(2*withoutValues + d.ValueBytes())
	for _, name := range []string{"a", "b"} {
		path := filepath.Join(t.TempDir(), name+".scj")
		if err := os.WriteFile(path, bin.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := c.Register(name, path, FormatAuto); err != nil {
			t.Fatal(err)
		}
		h, err := c.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := h.Document().ValueBytes(), d.ValueBytes(); got != want {
			t.Fatalf("%s: ValueBytes = %d after a reload, want %d", name, got, want)
		}
		h.Close()
	}
	info := c.Info()
	if info[0].Resident || !info[1].Resident || info[0].Evictions != 1 {
		t.Fatalf("want a evicted and b resident, got %+v", info)
	}
	if info[1].ValueBytes != d.ValueBytes() || info[1].Bytes != withoutValues+d.ValueBytes() {
		t.Fatalf("resident entry charged %d bytes, %d of them values; want %d and %d",
			info[1].Bytes, info[1].ValueBytes, withoutValues+d.ValueBytes(), d.ValueBytes())
	}
	if got := c.ResidentBytes(); got != info[1].Bytes {
		t.Fatalf("ResidentBytes = %d, want %d", got, info[1].Bytes)
	}
}

func TestIndexBytesNeverExceedResidentBytes(t *testing.T) {
	// Pinned AddDocument entries sit outside the residency budget, so
	// the catalog-level index gauge must skip them too — the index
	// share can never exceed the resident total (their footprint still
	// shows per entry in Info).
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := New(0)
	if err := c.AddDocument("mem", d); err != nil {
		t.Fatal(err)
	}
	if got := c.IndexBytes(); got != 0 {
		t.Fatalf("IndexBytes = %d for a pinned-only catalog, want 0 (resident = %d)", got, c.ResidentBytes())
	}
	info := c.Info()
	if len(info) != 1 || info[0].IndexBytes <= 0 {
		t.Fatalf("pinned entry must still report its index footprint: %+v", info)
	}
	if err := c.Register("disk", writeXML(t, "d.xml"), FormatAuto); err != nil {
		t.Fatal(err)
	}
	h, err := c.Open("disk")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if c.IndexBytes() <= 0 || c.IndexBytes() > c.ResidentBytes() {
		t.Fatalf("IndexBytes %d out of range (ResidentBytes %d)", c.IndexBytes(), c.ResidentBytes())
	}
}
