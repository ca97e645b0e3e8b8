package btree

import (
	"math/rand"
	"testing"
)

func TestKeyOrdering(t *testing.T) {
	cases := []struct {
		a, b Key
		less bool
	}{
		{Key{1, 0, 0}, Key{2, 0, 0}, true},
		{Key{1, 5, 0}, Key{1, 6, 0}, true},
		{Key{1, 5, 2}, Key{1, 5, 3}, true},
		{Key{2, 0, 0}, Key{1, 9, 9}, false},
		{Key{1, 1, 1}, Key{1, 1, 1}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
	if MinKey.Compare(MaxKey) != -1 || MaxKey.Compare(MinKey) != 1 || MinKey.Compare(MinKey) != 0 {
		t.Error("sentinel comparison broken")
	}
}

func TestBulkLoadSmall(t *testing.T) {
	keys := []Key{{1, 0, 0}, {2, 0, 0}, {3, 0, 0}}
	tr := BulkLoad(keys, []int32{10, 20, 30}, nil)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var got []int32
	tr.Scan(MinKey, MaxKey, func(_ Key, v int32) bool { got = append(got, v); return true })
	if len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("scan = %v", got)
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := BulkLoad(nil, nil, nil)
	if tr.Len() != 0 {
		t.Fatal("empty tree has entries")
	}
	if it := tr.Seek(MinKey); it.Valid() {
		t.Fatal("iterator on empty tree is valid")
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsorted bulk load")
		}
	}()
	BulkLoad([]Key{{2, 0, 0}, {1, 0, 0}}, []int32{0, 0}, nil)
}

func TestBulkLoadLargeAndDepth(t *testing.T) {
	n := 100_000
	keys := make([]Key, n)
	vals := make([]int32, n)
	for i := range keys {
		keys[i] = Key{A: int32(i), B: int32(i % 7)}
		vals[i] = int32(i)
	}
	tr := BulkLoad(keys, vals, nil)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() < 2 || tr.Depth() > 4 {
		t.Fatalf("depth = %d, want small logarithmic depth", tr.Depth())
	}
	// Point-ish range scan.
	got := tr.Count(Key{A: 500}, Key{A: 599, B: 1 << 30})
	if got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
}

func TestSeekLowerBound(t *testing.T) {
	keys := []Key{{10, 0, 0}, {20, 0, 0}, {30, 0, 0}}
	tr := BulkLoad(keys, []int32{1, 2, 3}, nil)
	it := tr.Seek(Key{15, 0, 0})
	if !it.Valid() || it.Key().A != 20 {
		t.Fatalf("Seek(15) at %v", it.Key())
	}
	it = tr.Seek(Key{30, 0, 0})
	if !it.Valid() || it.Key().A != 30 {
		t.Fatalf("Seek(30) at %v", it.Key())
	}
	it = tr.Seek(Key{31, 0, 0})
	if it.Valid() {
		t.Fatal("Seek past end should be invalid")
	}
}

func TestScanEarlyStop(t *testing.T) {
	keys := make([]Key, 100)
	vals := make([]int32, 100)
	for i := range keys {
		keys[i] = Key{A: int32(i)}
	}
	tr := BulkLoad(keys, vals, nil)
	n := 0
	tr.Scan(MinKey, MaxKey, func(Key, int32) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestDuplicateKeys(t *testing.T) {
	keys := []Key{{1, 1, 0}, {1, 1, 0}, {1, 1, 0}, {2, 0, 0}}
	tr := BulkLoad(keys, []int32{1, 2, 3, 4}, nil)
	got := tr.Count(Key{1, 1, 0}, Key{1, 1, 0})
	if got != 3 {
		t.Fatalf("duplicate count = %d, want 3", got)
	}
}

func TestStatsCounting(t *testing.T) {
	var st Stats
	n := 10_000
	keys := make([]Key, n)
	vals := make([]int32, n)
	for i := range keys {
		keys[i] = Key{A: int32(i)}
	}
	tr := BulkLoad(keys, vals, &st)
	tr.Scan(Key{A: 100}, Key{A: 199}, func(Key, int32) bool { return true })
	if st.Seeks != 1 {
		t.Fatalf("Seeks = %d, want 1", st.Seeks)
	}
	if st.NodesVisited < int64(tr.Depth()) {
		t.Fatalf("NodesVisited = %d < depth %d", st.NodesVisited, tr.Depth())
	}
	if st.KeysScanned < 100 {
		t.Fatalf("KeysScanned = %d, want >= 100", st.KeysScanned)
	}
	st.Reset()
	if st.Seeks != 0 || st.NodesVisited != 0 || st.KeysScanned != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

func TestZeroValueTree(t *testing.T) {
	var tr Tree
	if tr.Len() != 0 || tr.Depth() != 0 {
		t.Fatalf("zero tree Len=%d Depth=%d", tr.Len(), tr.Depth())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	it := tr.Seek(MinKey)
	if it.Valid() {
		t.Fatal("zero tree iterator is valid")
	}
	if it.Key() != (Key{}) || it.Value() != 0 {
		t.Fatal("exhausted iterator Key/Value not zero")
	}
	if got := tr.Count(MinKey, MaxKey); got != 0 {
		t.Fatalf("zero tree Count = %d", got)
	}
	tr.Scan(MinKey, MaxKey, func(Key, int32) bool { t.Fatal("zero tree scan visited an entry"); return false })
}

func TestExhaustedIteratorSafe(t *testing.T) {
	tr := BulkLoad([]Key{{1, 0, 0}}, []int32{9}, nil)
	it := tr.Seek(Key{2, 0, 0})
	if it.Valid() {
		t.Fatal("Seek past end valid")
	}
	if it.Key() != (Key{}) || it.Value() != 0 {
		t.Fatal("exhausted iterator Key/Value not zero")
	}
	it.Next() // advancing an exhausted iterator must be a no-op
	if it.Valid() {
		t.Fatal("exhausted iterator became valid")
	}
}

// TestEdgeCaseRanges drives Count over trees and bounds chosen to hit
// the boundary conditions: empty trees, duplicate runs crossing leaf
// boundaries, and ranges delimited by MinKey/MaxKey sentinels.
func TestEdgeCaseRanges(t *testing.T) {
	dupRun := make([]Key, 3*order) // one key repeated across >2 leaves
	for i := range dupRun {
		dupRun[i] = Key{A: 5}
	}
	mixed := []Key{{1, 0, 0}, {1, 0, 0}, {2, 0, 0}, {2, 1, 0}, {2, 1, 1}, {9, 0, 0}}
	cases := []struct {
		name   string
		keys   []Key
		lo, hi Key
		want   int
	}{
		{"empty/full-range", nil, MinKey, MaxKey, 0},
		{"empty/point", nil, Key{1, 0, 0}, Key{1, 0, 0}, 0},
		{"dup-run/all", dupRun, MinKey, MaxKey, 3 * order},
		{"dup-run/point", dupRun, Key{A: 5}, Key{A: 5}, 3 * order},
		{"dup-run/below", dupRun, MinKey, Key{A: 4, B: 1<<31 - 1, C: 1<<31 - 1}, 0},
		{"dup-run/above", dupRun, Key{A: 6}, MaxKey, 0},
		{"mixed/inclusive-both-ends", mixed, Key{1, 0, 0}, Key{9, 0, 0}, 6},
		{"mixed/exclusive-above-lo", mixed, Key{1, 0, 1}, Key{9, 0, 0}, 4},
		{"mixed/prefix-bound", mixed, Key{2, 0, 0}, Key{2, 1, 0}, 2},
		{"mixed/min-sentinel-lo", mixed, MinKey, Key{1, 0, 0}, 2},
		{"mixed/max-sentinel-hi", mixed, Key{9, 0, 0}, MaxKey, 1},
		{"mixed/inverted", mixed, Key{9, 0, 0}, Key{1, 0, 0}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vals := make([]int32, len(c.keys))
			tr := BulkLoad(c.keys, vals, nil)
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := tr.Count(c.lo, c.hi); got != c.want {
				t.Fatalf("Count(%v, %v) = %d, want %d", c.lo, c.hi, got, c.want)
			}
		})
	}
}

func TestPropRangeScanMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 3000
	keys := make([]Key, n)
	vals := make([]int32, n)
	for i := range keys {
		keys[i] = Key{A: int32(i / 3), B: int32(i % 3)}
		vals[i] = int32(i)
	}
	tr := BulkLoad(keys, vals, nil)
	for trial := 0; trial < 100; trial++ {
		lo := Key{A: int32(rng.Intn(1100) - 50), B: int32(rng.Intn(4) - 1)}
		hi := Key{A: int32(rng.Intn(1100) - 50), B: int32(rng.Intn(4) - 1)}
		want := 0
		for _, k := range keys {
			if !k.Less(lo) && !hi.Less(k) {
				want++
			}
		}
		if got := tr.Count(lo, hi); got != want {
			t.Fatalf("Count(%v,%v) = %d, want %d", lo, hi, got, want)
		}
	}
}
