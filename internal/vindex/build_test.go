package vindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refIndex is the definition of the index, spelled out the way Build
// used to compute it: every (value, pre) pair stably sorted by value,
// cut into groups, long values set aside.
type refIndex struct {
	keys     []string
	groups   [][]int32
	overflow []int32
}

func refBuild(vals []string) (ref refIndex) {
	type entry struct {
		val string
		pre int32
	}
	var entries []entry
	for i, v := range vals {
		if len(v) > MaxKeyLen {
			ref.overflow = append(ref.overflow, int32(i))
		} else {
			entries = append(entries, entry{v, int32(i)})
		}
	}
	slices.SortStableFunc(entries, func(x, y entry) int { return strings.Compare(x.val, y.val) })
	for i, e := range entries {
		if i == 0 || e.val != entries[i-1].val {
			ref.keys = append(ref.keys, e.val)
			ref.groups = append(ref.groups, nil)
		}
		ref.groups[len(ref.groups)-1] = append(ref.groups[len(ref.groups)-1], e.pre)
	}
	return ref
}

// randomVals draws n values with what the build has to get right: many
// duplicates, the empty string, values that agree in their first eight
// bytes or differ only by a trailing NUL, numbers in several spellings,
// and lengths on both sides of MaxKeyLen.
func randomVals(rng *rand.Rand, n int) []string {
	pool := []string{"", "a", "a\x00", "a\x00\x00", "ab", "b", "10", "10.0", " 10", "9", "-3.25", "1e1", "0x10",
		"open_auction1", "open_auction10", "open_auction2", "open_auc", "open_auct",
		"caesar", "brutus and caesar", "é", "\xff\xfe",
		strings.Repeat("k", MaxKeyLen-1), strings.Repeat("k", MaxKeyLen), strings.Repeat("k", MaxKeyLen+1),
		strings.Repeat("k", MaxKeyLen-1) + "l", strings.Repeat("long", 200)}
	vals := make([]string, n)
	for i := range vals {
		if rng.Intn(4) == 0 {
			vals[i] = fmt.Sprint("person", rng.Intn(n))
		} else {
			vals[i] = pool[rng.Intn(len(pool))]
		}
	}
	return vals
}

func TestBuildMatchesStableSortDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for round := 0; round < 60; round++ {
		vals := randomVals(rng, rng.Intn(400))
		// Values arrive as strings, as reused scratch buffers and as
		// announced overflows, mixed.
		var b Builder
		scratch := make([]byte, 0, 8)
		for i, v := range vals {
			switch {
			case len(v) > MaxKeyLen && rng.Intn(2) == 0:
				b.AddOverflow(int32(i))
			case rng.Intn(2) == 0:
				scratch = append(scratch[:0], v...)
				b.AddBytes(int32(i), scratch)
			default:
				b.Add(int32(i), v)
			}
		}
		ix, ref := b.Build(unnamed(len(vals))), refBuild(vals)
		if ix.NumValues() != len(ref.keys) || !slices.Equal(ix.Overflow(), ref.overflow) {
			t.Fatalf("round %d: %d keys, overflow %v; want %d, %v",
				round, ix.NumValues(), ix.Overflow(), len(ref.keys), ref.overflow)
		}
		r := 0
		ix.ForEachString(func(key string, pres []int32) {
			if key != ref.keys[r] || !slices.Equal(pres, ref.groups[r]) {
				t.Fatalf("round %d: group %d is %q %v, want %q %v", round, r, key, pres, ref.keys[r], ref.groups[r])
			}
			r++
		})
		// The same index read back from its section is the same again.
		var sec bytes.Buffer
		if err := ix.WriteSection(&sec); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSection(bytes.NewReader(sec.Bytes()), unnamed(len(vals)))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if back.keyText != ix.keyText || !slices.Equal(back.keyOff, ix.keyOff) ||
			!slices.Equal(back.strOff, ix.strOff) || !slices.Equal(back.strPre, ix.strPre) ||
			!slices.Equal(back.nameGrp, ix.nameGrp) || !slices.Equal(back.nums, ix.nums) || !slices.Equal(back.numOff, ix.numOff) || !slices.Equal(back.numPre, ix.numPre) {
			t.Fatalf("round %d: index read back from its section differs", round)
		}
	}
}

// TestRangesMatchLinearScan checks the three probes against a scan of
// the values. The substrings are cut out of the key arena itself, so
// many of them run across the boundary between two keys — where a
// match must not be reported.
func TestRangesMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	sorted := func(view []int32, _ bool) []int32 {
		out := slices.Clone(view)
		slices.Sort(out)
		return out
	}
	for round := 0; round < 40; round++ {
		vals := randomVals(rng, 1+rng.Intn(300))
		ix := buildFrom(vals)
		for trial := 0; trial < 40; trial++ {
			op, lit := Op(rng.Intn(5)), vals[rng.Intn(len(vals))]
			if rng.Intn(3) == 0 {
				lit += "0"
			}
			var wantStr, wantNum []int32
			f, numeric := ParseNumber(lit)
			for i, v := range vals {
				if len(v) > MaxKeyLen {
					continue
				}
				if compareValue(v, op, lit, false) {
					wantStr = append(wantStr, int32(i))
				}
				if numeric && compareValue(v, op, lit, true) {
					wantNum = append(wantNum, int32(i))
				}
			}
			if got := sorted(ix.StringRange(op, lit)); !slices.Equal(got, wantStr) {
				t.Fatalf("round %d: StringRange %s %q = %v, want %v", round, op, lit, got, wantStr)
			}
			if numeric {
				if got := sorted(ix.NumericRange(op, f, -1)); !slices.Equal(got, wantNum) {
					t.Fatalf("round %d: NumericRange %s %v = %v, want %v", round, op, f, got, wantNum)
				}
			}
			sub := ""
			if len(ix.keyText) > 0 {
				from := rng.Intn(len(ix.keyText))
				sub = ix.keyText[from:min(len(ix.keyText), from+1+rng.Intn(6))]
			}
			var wantSub []int32
			for i, v := range vals {
				if len(v) <= MaxKeyLen && strings.Contains(v, sub) {
					wantSub = append(wantSub, int32(i))
				}
			}
			if got := ix.ContainsSubstr(sub); !slices.Equal(got, wantSub) {
				t.Fatalf("round %d: ContainsSubstr(%q) = %v, want %v", round, sub, got, wantSub)
			}
		}
	}
}

// TestProbesDoNotAllocate: keys are substrings of one arena and range
// probes are views of one column, so neither builds anything.
func TestProbesDoNotAllocate(t *testing.T) {
	ix := buildFrom(randomVals(rand.New(rand.NewSource(26)), 2000))
	var keys, nodes int
	if n := testing.AllocsPerRun(20, func() {
		view, _ := ix.StringRange(OpGe, "open_auction10")
		nodes += len(view)
		view, _ = ix.NumericRange(OpLt, 10, -1)
		nodes += len(view)
		ix.ForEachString(func(key string, _ []int32) { keys += len(key) })
	}); n != 0 {
		t.Errorf("range probes and key visits: %v allocations, want 0", n)
	}
	if keys == 0 || nodes == 0 {
		t.Fatal("probes found nothing")
	}
}
