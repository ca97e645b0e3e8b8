package doc_test

import (
	"bytes"
	"runtime"
	"testing"

	"staircase/internal/doc"
	"staircase/internal/vindex"
	"staircase/internal/xmark"
)

func xmarkText(t testing.TB, sizeMB float64, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := xmark.Write(&buf, xmark.Config{SizeMB: sizeMB, Seed: seed, KeepValues: true}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShredDiffXMark: on generated auction documents of 1 to 4 MB the
// scanner and the encoding/xml oracle build the same document.
func TestShredDiffXMark(t *testing.T) {
	for size := 1; size <= 4; size++ {
		doc.DiffShred(t, xmarkText(t, float64(size), int64(size)))
	}
}

// heapObjects counts the heap objects a document loaded by load, with
// both indexes, keeps alive.
func heapObjects(t *testing.T, load func() *doc.Document) int64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := load()
	if d.TagIndex() == nil || d.ValueIndex() == nil {
		t.Fatal("indexes missing")
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	return int64(after.HeapObjects) - int64(before.HeapObjects)
}

// TestLoadedDocumentIsPointerFree states the point of the text arenas
// as a count: what a loaded document keeps on the heap is a fixed set
// of columns, not an object per node value or per index key, so four
// times the document holds (nearly) the same number of objects. With a
// string per value the difference was some 100 000.
func TestLoadedDocumentIsPointerFree(t *testing.T) {
	small, large := xmarkText(t, 1, 7), xmarkText(t, 4, 7)
	shred := func(text []byte) func() *doc.Document {
		return func() *doc.Document {
			d, err := doc.Shred(bytes.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
	}
	read := func(text []byte) func() *doc.Document {
		var bin bytes.Buffer
		if err := shred(text)().WriteBinary(&bin); err != nil {
			t.Fatal(err)
		}
		return func() *doc.Document {
			d, err := doc.ReadBinary(bytes.NewReader(bin.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
	}
	for _, c := range []struct {
		name string
		load func([]byte) func() *doc.Document
	}{{"shred", shred}, {"read-binary", read}} {
		s, l := heapObjects(t, c.load(small)), heapObjects(t, c.load(large))
		t.Logf("%s: %d heap objects at 1 MB, %d at 4 MB", c.name, s, l)
		if diff := l - s; diff < -1000 || diff > 1000 {
			t.Errorf("%s: heap objects grow with the document: %d at 1 MB, %d at 4 MB", c.name, s, l)
		}
	}
}

// TestValueAccessDoesNotAllocate: node values and the string values of
// elements with one run of text are substrings of the arena.
func TestValueAccessDoesNotAllocate(t *testing.T) {
	d, err := doc.Shred(bytes.NewReader(xmarkText(t, 0.2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	ix := d.ValueIndex()
	var bytesSeen, nodes int
	if n := testing.AllocsPerRun(5, func() {
		for v := int32(0); int(v) < d.Size(); v++ {
			bytesSeen += len(d.Value(v))
			if d.KindOf(v) == doc.Elem && d.SubtreeSize(v) == 1 {
				bytesSeen += len(d.StringValue(v)) // <tag>text</tag>
			}
		}
		view, _ := ix.StringRange(vindex.OpGe, "m")
		nodes += len(view)
	}); n != 0 {
		t.Errorf("Value, StringValue of text-only elements, StringRange: %v allocations, want 0", n)
	}
	if bytesSeen == 0 || nodes == 0 {
		t.Fatal("nothing read")
	}
}
