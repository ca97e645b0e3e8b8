// An external test package, so the oracle can be xpath.CompareValue
// itself (internal/xpath imports this package).
package vindex_test

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"staircase/internal/vindex"
	"staircase/internal/xpath"
)

// ops pairs each index operator with the comparison it must implement.
var ops = []struct {
	ix vindex.Op
	xp xpath.CompareOp
}{
	{vindex.OpEq, xpath.OpEq}, {vindex.OpLt, xpath.OpLt}, {vindex.OpLe, xpath.OpLe},
	{vindex.OpGt, xpath.OpGt}, {vindex.OpGe, xpath.OpGe},
}

// TestLookupBoundaries crosses every operator with every kind of
// boundary literal — below the minimum, above the maximum, an exact
// hit, between two groups, an interval that selects nothing — on
// documents with duplicate values, several spellings of one number,
// negatives and overflow values, and compares each lookup with a
// brute-force xpath.CompareValue pass over all nodes. Fragments must
// come back strictly ascending (document order, no duplicates), and the
// column view a lookup copies from must hold exactly the same nodes.
func TestLookupBoundaries(t *testing.T) {
	numeric := []string{"10", "10.0", " 10 ", "1e1", "-5", "-5.0", "-0", "0", "2.5", "30", "300"}
	words := append(slices.Clone(numeric), "", " ", "a", "ab", "b", "m", "zz",
		strings.Repeat("o", vindex.MaxKeyLen+1), strings.Repeat("9", vindex.MaxKeyLen+3))
	numLits := []string{"-100", "-5", "-2", "0", "2.5", "7", "10", "10.0", "30", "300", "1000"}
	strLits := []string{"", " ", " 10 ", "-5", "10", "10.0", "1e1", "5", "a", "aa", "b", "c", "zz", "zzz"}
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 12; round++ {
		vocab := words
		if round%3 == 1 {
			vocab = numeric
		}
		vals := make([]string, 1+rng.Intn(300))
		var b vindex.Builder
		for i := range vals {
			vals[i] = vocab[rng.Intn(len(vocab))]
			b.Add(int32(i), vals[i])
		}
		ix := b.Build(len(vals))
		if round%2 == 1 { // a loaded index must answer like a built one
			var buf bytes.Buffer
			if err := ix.WriteSection(&buf); err != nil {
				t.Fatal(err)
			}
			var err error
			if ix, err = vindex.ReadSection(&buf, len(vals)); err != nil {
				t.Fatal(err)
			}
		}
		check := func(op vindex.Op, xop xpath.CompareOp, lit string, isNum bool) {
			t.Helper()
			var (
				view, keyed []int32
				inOrder     bool
			)
			if isNum {
				f, _ := vindex.ParseNumber(lit)
				view, inOrder = ix.NumericRange(op, f)
				keyed = ix.LookupNumeric(op, f)
			} else {
				view, inOrder = ix.StringRange(op, lit)
				keyed = ix.LookupString(op, lit)
			}
			sorted := slices.Clone(view)
			slices.Sort(sorted)
			if inOrder && !slices.Equal(view, sorted) {
				t.Fatalf("round %d: %s %q numeric=%v: view flagged in order but is %v", round, op, lit, isNum, view)
			}
			if !slices.Equal(keyed, sorted) {
				t.Fatalf("round %d: %s %q numeric=%v: view holds %v, lookup returned %v", round, op, lit, isNum, sorted, keyed)
			}
			// Keyed nodes plus the overflow nodes re-evaluated one by one
			// (what the executor does) against every node compared the
			// slow way.
			got := slices.Clone(keyed)
			for _, v := range ix.Overflow() {
				if xpath.CompareValue(vals[v], xop, lit, isNum) {
					got = append(got, v)
				}
			}
			slices.Sort(got)
			var want []int32
			for i, v := range vals {
				if xpath.CompareValue(v, xop, lit, isNum) {
					want = append(want, int32(i))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: %s %q numeric=%v = %v, want %v", round, op, lit, isNum, got, want)
			}
			for i := 1; i < len(keyed); i++ {
				if keyed[i-1] >= keyed[i] {
					t.Fatalf("round %d: %s %q numeric=%v not strictly ascending: %v", round, op, lit, isNum, keyed)
				}
			}
		}
		for _, op := range ops {
			for _, lit := range numLits {
				check(op.ix, op.xp, lit, true)
			}
			for _, lit := range strLits {
				check(op.ix, op.xp, lit, false)
			}
		}
	}
}
