package vindex

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Node kinds of the name-major tests: the index does not know them, but
// an element and an attribute may share a name id, so a lookup's keep
// function is what tells them apart.
const (
	kElem = iota
	kAttr
	kText
)

// namedDoc draws n nodes: elements and attributes over four names (name
// 0 carried by both kinds), text nodes unnamed, values mostly numbers in
// several spellings. sparse makes one node in twenty numeric, so blocks
// are small against the document.
func namedDoc(rng *rand.Rand, n int, sparse bool) (vals []string, names []int32, kinds []uint8) {
	nums := []string{"10", "10.0", " 10 ", "1e1", "-5", "-0", "0", "2.5", "30", "300", "7", "8"}
	words := []string{"", "a", "ab", "x1", strings.Repeat("9", MaxKeyLen+1)}
	vals, names, kinds = make([]string, n), make([]int32, n), make([]uint8, n)
	for i := range vals {
		switch k := uint8(rng.Intn(3)); {
		case i < 2: // one element and one attribute named 0
			kinds[i], names[i] = uint8(i), 0
		case k == kText:
			kinds[i], names[i] = k, -1
		default:
			kinds[i], names[i] = k, int32(rng.Intn(4))
		}
		if sparse && rng.Intn(20) > 0 || !sparse && rng.Intn(5) == 0 {
			vals[i] = words[rng.Intn(len(words))]
		} else {
			vals[i] = nums[rng.Intn(len(nums))]
		}
	}
	return vals, names, kinds
}

// TestNameMajorMatchesLinearScan: for random documents, every name-major
// lookup — one name's block, every name at once, the view and the
// ordered copy, under a kind filter or none — equals a linear scan over
// (name, kind, value), for every operator and literals on, between and
// beyond the group boundaries; unnamed nodes, attributes, a name held by
// both an element and an attribute and a name no node carries included.
// Every ordering path is taken: one group, sorted, and through the
// bitmap.
func TestNameMajorMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	paths := map[string]int{}
	for round := 0; round < 12; round++ {
		n := []int{1 + rng.Intn(60), 1 + rng.Intn(400), 3000}[round%3]
		vals, names, kinds := namedDoc(rng, n, round%3 == 2)
		var b Builder
		for i, v := range vals {
			b.Add(int32(i), v)
		}
		ix := b.Build(names)
		if round%2 == 1 { // a loaded index must answer like a built one
			var buf bytes.Buffer
			if err := ix.WriteSection(&buf); err != nil {
				t.Fatal(err)
			}
			var err error
			if ix, err = ReadSection(&buf, names); err != nil {
				t.Fatal(err)
			}
		}
		lits := []float64{-1e9, 1e9}
		ix.ForEachNumeric(func(_ int32, f float64, _ []int32) { lits = append(lits, f, f+0.25, f-0.25) })
		if len(lits) > 40 { // the numbers repeat across names
			rng.Shuffle(len(lits), func(i, j int) { lits[i], lits[j] = lits[j], lits[i] })
			lits = lits[:40]
		}
		scan := func(op Op, lit string, name int32, all bool, kind int) []int32 {
			var out []int32
			for i, v := range vals {
				if len(v) <= MaxKeyLen && (all || names[i] == name) && (kind < 0 || int(kinds[i]) == kind) &&
					compareValue(v, op, lit, true) {
					out = append(out, int32(i))
				}
			}
			return out
		}
		for _, f := range lits {
			lit := strconv.FormatFloat(f, 'g', -1, 64)
			for op := OpEq; op <= OpGe; op++ {
				for _, kind := range []int{-1, kElem, kAttr} {
					var keep func(v int32) bool
					if kind >= 0 {
						keep = func(v int32) bool { return int(kinds[v]) == kind }
					}
					for _, name := range []int32{-1, 0, 1, 2, 3, 9} {
						want := scan(op, lit, name, false, kind)
						what := fmt.Sprintf("round %d: name %d kind %d %s %s", round, name, kind, op, lit)
						got := ix.AppendNumeric([]int32{-7}, op, f, name, keep)
						if got[0] != -7 || !slices.Equal(got[1:], want) {
							t.Fatalf("%s: AppendNumeric = %v, want [-7] + %v", what, got, want)
						}
						view, inOrder := ix.NumericRange(op, f, name)
						switch m := len(view); {
						case inOrder:
							paths["one group"]++
						case m*bits.Len(uint(m)) < (n+63)>>6:
							paths["sort"]++
						default:
							paths["bitmap"]++
						}
						if kind < 0 {
							sorted := slices.Sorted(slices.Values(view))
							if !slices.Equal(sorted, want) || inOrder && !slices.Equal(view, sorted) {
								t.Fatalf("%s: NumericRange = %v (in order %v), want %v", what, view, inOrder, want)
							}
						}
					}
					want := scan(op, lit, 0, true, kind)
					if got := ix.AppendNumericAll(nil, op, f, keep); !slices.Equal(got, want) {
						t.Fatalf("round %d: all names kind %d %s %s = %v, want %v", round, kind, op, lit, got, want)
					}
					if kind < 0 {
						if got := ix.LookupNumeric(op, f); !slices.Equal(got, want) {
							t.Fatalf("round %d: LookupNumeric %s %s = %v, want %v", round, op, lit, got, want)
						}
					}
				}
			}
		}
	}
	t.Logf("name lookups by ordering path: %v", paths)
	for _, p := range []string{"one group", "sort", "bitmap"} {
		if paths[p] == 0 {
			t.Errorf("no lookup took the %s path: %v", p, paths)
		}
	}
}

// TestNameLookupAllocation: a name-major lookup allocates its result
// slice and nothing else, whichever way it orders the block's range —
// one group, sorted, or through the pooled bitmap. The bitmap pool
// drops entries under the race detector, so the test skips there.
func TestNameLookupAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	const n = 40000
	var b Builder
	names := make([]int32, n)
	for i := range n {
		// Ten dense names over values 0..99, and a sparse name 11 on
		// every thousandth node, over values 0..39.
		v := i % 100
		names[i] = int32(i % 10)
		if i%1000 == 999 {
			names[i], v = 11, i/1000
		}
		b.Add(int32(i), strconv.Itoa(v))
	}
	ix := b.Build(names)
	var sink []int32
	for _, c := range []struct {
		what string
		op   Op
		f    float64
		name int32
		want int
	}{
		{"one group", OpEq, 13, 3, 400},
		{"bitmap", OpLt, 14, 3, 800},
		{"sort", OpGe, 0, 11, 40},
	} {
		view, inOrder := ix.NumericRange(c.op, c.f, c.name)
		path := "bitmap"
		switch m := len(view); {
		case inOrder:
			path = "one group"
		case m*bits.Len(uint(m)) < (n+63)>>6:
			path = "sort"
		}
		if path != c.what {
			t.Fatalf("%s: the lookup takes the %s path", c.what, path)
		}
		allocs := testing.AllocsPerRun(20, func() { sink = ix.AppendNumeric(nil, c.op, c.f, c.name, nil) })
		if len(sink) != c.want {
			t.Fatalf("%s: %d nodes, want %d", c.what, len(sink), c.want)
		}
		if allocs > 1 {
			t.Errorf("%s: %v allocations, want at most the result slice", c.what, allocs)
		}
	}
}
