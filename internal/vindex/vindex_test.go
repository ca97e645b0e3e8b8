package vindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// buildFrom builds an index over the given per-node values (pre rank =
// slice position).
func buildFrom(vals []string) *Index {
	var b Builder
	for i, v := range vals {
		b.Add(int32(i), v)
	}
	return b.Build(unnamed(len(vals)))
}

// unnamed is the name column of n unnamed nodes.
func unnamed(n int) []int32 {
	names := make([]int32, n)
	for i := range names {
		names[i] = -1
	}
	return names
}

// compareValue is the test oracle's comparison: the same semantics
// xpath.CompareValue implements on top of ParseNumber (the engine's
// differential suite pins the two stacks against each other end to
// end).
func compareValue(s string, op Op, lit string, numeric bool) bool {
	if numeric {
		v, ok := ParseNumber(s)
		if !ok {
			return false
		}
		w, ok := ParseNumber(lit)
		if !ok {
			return false
		}
		switch op {
		case OpEq:
			return v == w
		case OpLt:
			return v < w
		case OpLe:
			return v <= w
		case OpGt:
			return v > w
		default:
			return v >= w
		}
	}
	switch op {
	case OpEq:
		return s == lit
	case OpLt:
		return s < lit
	case OpLe:
		return s <= lit
	case OpGt:
		return s > lit
	default:
		return s >= lit
	}
}

// oracle evaluates a lookup the slow way: every node's value compared
// via the shared semantics, overflow nodes included.
func oracle(vals []string, op Op, lit string, numeric bool) []int32 {
	var out []int32
	for i, v := range vals {
		if compareValue(v, op, lit, numeric) {
			out = append(out, int32(i))
		}
	}
	return out
}

// indexedLookup runs a lookup through the index, re-evaluating the
// overflow nodes per node the way the executor does.
func indexedLookup(ix *Index, vals []string, op Op, lit string, numeric bool) []int32 {
	var out []int32
	if numeric {
		if f, ok := ParseNumber(lit); ok {
			out = ix.LookupNumeric(op, f)
		}
	} else {
		out = ix.LookupString(op, lit)
	}
	for _, v := range ix.Overflow() {
		if compareValue(vals[v], op, lit, numeric) {
			out = append(out, v)
		}
	}
	return sortedMerge(out)
}

func sortedMerge(nodes []int32) []int32 {
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] > nodes[i] {
			// Overflow nodes appended out of order: insertion-sort back.
			for j := i; j > 0 && nodes[j-1] > nodes[j]; j-- {
				nodes[j-1], nodes[j] = nodes[j], nodes[j-1]
			}
		}
	}
	return nodes
}

func eq32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestParseNumber(t *testing.T) {
	cases := []struct {
		in string
		f  float64
		ok bool
	}{
		{"100", 100, true},
		{"10.5", 10.5, true},
		{" 42 ", 42, true},
		{"-3", -3, true},
		{"1e3", 1000, true},
		{"", 0, false},
		{"abc", 0, false},
		{"NaN", 0, false},
		{"Inf", 0, false},
	}
	for _, c := range cases {
		f, ok := ParseNumber(c.in)
		if ok != c.ok || (ok && f != c.f) {
			t.Errorf("ParseNumber(%q) = %v, %v; want %v, %v", c.in, f, ok, c.f, c.ok)
		}
	}
}

func TestLookupSmall(t *testing.T) {
	vals := []string{"", "100", "20", "abc", "100", " 100 ", "3.5", "abc", "xyz",
		strings.Repeat("v", MaxKeyLen+1)}
	ix := buildFrom(vals)
	if got := ix.Entries(); got != int64(len(vals)) {
		t.Fatalf("Entries() = %d, want %d", got, len(vals))
	}
	if len(ix.Overflow()) != 1 || ix.Overflow()[0] != 9 {
		t.Fatalf("Overflow() = %v, want [9]", ix.Overflow())
	}
	ops := []Op{OpEq, OpLt, OpLe, OpGt, OpGe}
	lits := []string{"", "100", "100.0", "20", "abc", "zz", "3.5"}
	for _, op := range ops {
		for _, lit := range lits {
			for _, numeric := range []bool{false, true} {
				got := indexedLookup(ix, vals, op, lit, numeric)
				want := oracle(vals, op, lit, numeric)
				if !eq32(got, want) {
					t.Errorf("lookup %s %q numeric=%v = %v, want %v", op, lit, numeric, got, want)
				}
			}
		}
	}
}

func TestContainsSubstr(t *testing.T) {
	vals := []string{"brutus and caesar", "caesar", "calpurnia", "", "brutus", "xbrutusx"}
	ix := buildFrom(vals)
	cases := []struct {
		sub  string
		want []int32
	}{
		{"brutus", []int32{0, 4, 5}},
		{"caesar", []int32{0, 1}},
		{"c", []int32{0, 1, 2}},
		{"", []int32{0, 1, 2, 3, 4, 5}},
		{"nope", nil},
	}
	for _, c := range cases {
		if got := ix.ContainsSubstr(c.sub); !eq32(got, c.want) {
			t.Errorf("ContainsSubstr(%q) = %v, want %v", c.sub, got, c.want)
		}
	}
}

func TestLookupRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words := []string{"", "a", "ab", "b", "10", "9", "100", "100.0", " 7 ", "-3.25",
		"caesar", "brutus", strings.Repeat("long", 70)}
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(200)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = words[rng.Intn(len(words))]
		}
		ix := buildFrom(vals)
		for trial := 0; trial < 30; trial++ {
			op := Op(rng.Intn(5))
			lit := words[rng.Intn(len(words))]
			numeric := rng.Intn(2) == 0
			got := indexedLookup(ix, vals, op, lit, numeric)
			want := oracle(vals, op, lit, numeric)
			if !eq32(got, want) {
				t.Fatalf("round %d: lookup %s %q numeric=%v = %v, want %v",
					round, op, lit, numeric, got, want)
			}
		}
		// contains() against a substring oracle over the keyed values.
		for _, sub := range []string{"a", "es", "0", "zz"} {
			var want []int32
			for i, v := range vals {
				if len(v) <= MaxKeyLen && strings.Contains(v, sub) {
					want = append(want, int32(i))
				}
			}
			if got := ix.ContainsSubstr(sub); !eq32(got, want) {
				t.Fatalf("round %d: ContainsSubstr(%q) = %v, want %v", round, sub, got, want)
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	words := []string{"", "alpha", "10", "10.00", "beta", strings.Repeat("x", MaxKeyLen),
		strings.Repeat("y", MaxKeyLen+5)}
	for _, n := range []int{1, 5, 300} {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = words[rng.Intn(len(words))]
		}
		// The name column shapes the derived numeric partition only: the
		// section of a named index is the unnamed one's, byte for byte.
		names := make([]int32, n)
		var b Builder
		for i, v := range vals {
			names[i] = int32(rng.Intn(3)) - 1
			b.Add(int32(i), v)
		}
		ix := b.Build(names)
		var buf, plain bytes.Buffer
		if err := ix.WriteSection(&buf); err != nil {
			t.Fatal(err)
		}
		if err := buildFrom(vals).WriteSection(&plain); err != nil {
			t.Fatal(err)
		}
		first := append([]byte(nil), buf.Bytes()...)
		if !bytes.Equal(first, plain.Bytes()) {
			t.Fatalf("n=%d: the name column changed the section bytes", n)
		}
		ix2, err := ReadSection(&buf, names)
		if err != nil {
			t.Fatalf("n=%d: ReadSection: %v", n, err)
		}
		var buf2 bytes.Buffer
		if err := ix2.WriteSection(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, buf2.Bytes()) {
			t.Fatalf("n=%d: write-read-write not byte identical", n)
		}
		for _, op := range []Op{OpEq, OpLt, OpGe} {
			for _, lit := range []string{"alpha", "10"} {
				if !eq32(ix.LookupString(op, lit), ix2.LookupString(op, lit)) {
					t.Fatalf("n=%d: reloaded index disagrees on %s %q", n, op, lit)
				}
			}
			for name := int32(-1); name < 2; name++ {
				if !eq32(ix.AppendNumeric(nil, op, 10, name, nil), ix2.AppendNumeric(nil, op, 10, name, nil)) {
					t.Fatalf("n=%d: reloaded index disagrees on name %d %s 10", n, name, op)
				}
			}
		}
		if !eq32(ix.Overflow(), ix2.Overflow()) {
			t.Fatalf("n=%d: reloaded overflow differs", n)
		}
	}
}

func TestReadSectionRejectsCorrupt(t *testing.T) {
	vals := []string{"b", "a", "c", "a", strings.Repeat("z", MaxKeyLen+1)}
	ix := buildFrom(vals)
	var buf bytes.Buffer
	if err := ix.WriteSection(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := ReadSection(bytes.NewReader(good), unnamed(len(vals))); err != nil {
		t.Fatalf("pristine section rejected: %v", err)
	}
	// Wrong node count: partition no longer covers the document.
	if _, err := ReadSection(bytes.NewReader(good), unnamed(len(vals)+1)); err == nil {
		t.Error("section accepted for wrong node count")
	}
	// Truncations at every length must error, never panic.
	for cut := 0; cut < len(good); cut++ {
		if _, err := ReadSection(bytes.NewReader(good[:cut]), unnamed(len(vals))); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Single-byte corruptions: either rejected or — when the flip lands
	// in string content without breaking ordering — still a structurally
	// valid section. They must never panic; semantic drift is caught by
	// the document-level cross-check.
	for off := 0; off < len(good); off++ {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("flip at %d: panic %v", off, r)
				}
			}()
			_, _ = ReadSection(bytes.NewReader(mut), unnamed(len(vals)))
		}()
	}
}

func TestBuilderPanics(t *testing.T) {
	t.Run("out of order", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-order Add did not panic")
			}
		}()
		var b Builder
		b.Add(1, "x")
		b.Add(1, "y")
	})
	t.Run("incomplete", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("incomplete Build did not panic")
			}
		}()
		var b Builder
		b.Add(0, "x")
		b.Build(unnamed(2))
	})
}

func TestDerivedNumericPartition(t *testing.T) {
	vals := []string{"10", " 10 ", "10.0", "2", "abc", "1e1", ""}
	ix := buildFrom(vals)
	// "10", " 10 ", "10.0" and "1e1" all parse to 10; "2" to 2.
	if len(ix.nums) != 2 {
		t.Fatalf("%d numeric groups, want 2", len(ix.nums))
	}
	var groups []string
	ix.ForEachNumeric(func(_ int32, f float64, pres []int32) {
		groups = append(groups, fmt.Sprintf("%g:%v", f, pres))
	})
	want := []string{"2:[3]", "10:[0 1 2 5]"}
	if len(groups) != len(want) || groups[0] != want[0] || groups[1] != want[1] {
		t.Fatalf("numeric groups %v, want %v", groups, want)
	}
}

// TestLookupCost pins what a lookup costs without a clock: a range
// inside one value group is one allocation (the copy), a range across
// groups at most two, and the resident index stays within 24 bytes per
// indexed node on a document whose values are short.
func TestLookupCost(t *testing.T) {
	vals := make([]string, 4000)
	for i := range vals {
		vals[i] = fmt.Sprint(i % 50)
	}
	ix := buildFrom(vals)
	var sink []int32
	if n := testing.AllocsPerRun(20, func() { sink = ix.LookupNumeric(OpEq, 7) }); n != 1 {
		t.Errorf("single-group numeric lookup: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(20, func() { sink = ix.LookupString(OpEq, "7") }); n != 1 {
		t.Errorf("single-group string lookup: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(20, func() { sink = ix.LookupNumeric(OpGt, 7) }); n > 2 {
		t.Errorf("multi-group numeric lookup: %v allocations, want <= 2", n)
	}
	if n := testing.AllocsPerRun(20, func() { sink = ix.LookupString(OpLe, "3") }); n > 2 {
		t.Errorf("multi-group string lookup: %v allocations, want <= 2", n)
	}
	if len(sink) == 0 {
		t.Fatal("lookups returned nothing")
	}
	if per := float64(ix.Bytes()) / float64(ix.Entries()); per > 24 {
		t.Errorf("index holds %.1f bytes per entry, want <= 24", per)
	}
}

// TestOrderMatchesSort: Order and Intersect equal sorting (and
// filtering, and intersecting) distinct ranks, small sets and large,
// in place and into a fresh slice, and bitmaps handed back to the pool
// by documents of other sizes come out empty.
func TestOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	odd := func(v int32) bool { return v&1 != 0 }
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn([]int{64, 1000, 20000}[trial%3])
		m := 1 + rng.Intn(n)
		if trial%2 == 0 {
			m = 1 + rng.Intn(min(n, 40))
		}
		pres := make([]int32, m)
		for i, v := range rng.Perm(n)[:m] {
			pres[i] = int32(v)
		}
		sorted := slices.Sorted(slices.Values(pres))
		var list, both, kept []int32
		for v := int32(0); v < int32(n); v++ {
			if rng.Intn(3) == 0 {
				list = append(list, v)
				if _, ok := slices.BinarySearch(sorted, v); ok {
					both = append(both, v)
				}
			}
		}
		for _, v := range sorted {
			if odd(v) {
				kept = append(kept, v)
			}
		}
		if got := Order(nil, pres, n, odd); !slices.Equal(got, kept) {
			t.Fatalf("n %d: Order(odd) = %v, want %v", n, got, kept)
		}
		if got := Intersect(nil, pres, list, n); !slices.Equal(got, both) {
			t.Fatalf("n %d: Intersect = %v, want %v", n, got, both)
		}
		if got := Order(pres[:0], pres, n, nil); !slices.Equal(got, sorted) {
			t.Fatalf("n %d: Order in place = %v, want %v", n, got, sorted)
		}
	}
}
