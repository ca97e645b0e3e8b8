package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"staircase/internal/axis"
	"staircase/internal/spec"
)

var cursorAxes = []axis.Axis{axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding}

// drainCursor pulls a cursor to exhaustion with the given batch
// capacity, asserting the inter-batch ordering contract.
func drainCursor(t *testing.T, c JoinCursor, batch int) []int32 {
	t.Helper()
	var out []int32
	for {
		got, err := c.Next(make([]int32, 0, batch), 0)
		if err != nil {
			t.Fatalf("cursor error: %v", err)
		}
		if got == nil {
			return out
		}
		if len(got) > batch {
			t.Fatalf("cursor returned %d nodes from a window of %d", len(got), batch)
		}
		for i, v := range got {
			if len(out) > 0 && i == 0 && v <= out[len(out)-1] {
				t.Fatalf("batch not increasing across batches: %d after %d", v, out[len(out)-1])
			}
			if i > 0 && v <= got[i-1] {
				t.Fatalf("batch not strictly increasing: %v", got)
			}
		}
		out = append(out, got...)
	}
}

// inList keeps the nodes of nodes that are in the sorted list.
func inList(nodes, list []int32) []int32 {
	return slices.DeleteFunc(slices.Clone(nodes), func(v int32) bool {
		_, in := slices.BinarySearch(list, v)
		return !in
	})
}

// TestJoinCursorEqualsBatchJoin: draining a cursor must reproduce the
// unbounded run — Join and JoinNodeList — exactly, and both must equal
// the specification, for every axis and variant at windows of 1, 16,
// 256 and a random one, over full documents and over node lists.
func TestJoinCursorEqualsBatchJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		d, context := docFromSeed(rng.Int63(), uint16(rng.Intn(1<<16)))
		list := randomList(rng, d, 0.3)
		for _, a := range cursorAxes {
			ref := spec.Join(d, a, context)
			refList := inList(ref, list)
			for _, v := range []Variant{NoSkip, Skip, SkipEstimate} {
				o := &Options{Variant: v}
				want, err := Join(d, a, context, o)
				if err != nil {
					t.Fatal(err)
				}
				if !eq32(want, ref) {
					t.Fatalf("join != spec for %v/%v:\n got %v\nwant %v", a, v, want, ref)
				}
				wantList, err := JoinNodeList(d, a, list, context, o)
				if err != nil {
					t.Fatal(err)
				}
				if !eq32(wantList, refList) {
					t.Fatalf("list join != spec for %v/%v:\n got %v\nwant %v", a, v, wantList, refList)
				}
				for _, batch := range []int{1, 16, 256, 1 + rng.Intn(70)} {
					cur, err := NewJoinCursor(d, a, SliceSource(context), o)
					if err != nil {
						t.Fatal(err)
					}
					if got := drainCursor(t, cur, batch); !eq32(got, want) {
						t.Fatalf("cursor != join for %v/%v batch=%d:\n got %v\nwant %v", a, v, batch, got, want)
					}
					lcur, err := NewJoinNodeListCursor(d, a, list, SliceSource(context), o)
					if err != nil {
						t.Fatal(err)
					}
					if got := drainCursor(t, lcur, batch); !eq32(got, wantList) {
						t.Fatalf("list cursor != list join for %v/%v batch=%d:\n got %v\nwant %v", a, v, batch, got, wantList)
					}
				}
			}
		}
	}
}

// TestFollowingCountsWhatItIsHanded: Join counts the whole context it is
// handed, while a drained following cursor stops reading its source at
// the first node beyond the first context node's subtree and counts
// only what it read.
func TestFollowingCountsWhatItIsHanded(t *testing.T) {
	d := figure1(t)
	context := pres("bcdf") // b's subtree is b, c: reading stops at c
	for _, list := range [][]int32{nil, pres("dghj")} {
		var joined, drained Stats
		var want []int32
		var cur JoinCursor
		var err error
		if list == nil {
			want, err = Join(d, axis.Following, context, &Options{Stats: &joined})
			if err == nil {
				cur, err = NewJoinCursor(d, axis.Following, SliceSource(context), &Options{Stats: &drained})
			}
		} else {
			want, err = JoinNodeList(d, axis.Following, list, context, &Options{Stats: &joined})
			if err == nil {
				cur, err = NewJoinNodeListCursor(d, axis.Following, list, SliceSource(context), &Options{Stats: &drained})
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := drainCursor(t, cur, 3); !eq32(got, want) {
			t.Fatalf("list %v: cursor %v, join %v", list, got, want)
		}
		if joined.ContextSize != 4 || drained.ContextSize != 2 {
			t.Errorf("list %v: Join counted %d context nodes (want 4), the cursor %d (want 2)", list, joined.ContextSize, drained.ContextSize)
		}
		joined.ContextSize = drained.ContextSize
		if joined != drained {
			t.Errorf("list %v: cursor counters %+v, Join's %+v", list, drained, joined)
		}
	}
}

// TestJoinCursorSeek: with a seek hint, the cursor may omit results
// below the hint but must reproduce the batch result exactly from the
// hint onward.
func TestJoinCursorSeek(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		d, context := docFromSeed(rng.Int63(), uint16(rng.Intn(1<<16)))
		list := randomList(rng, d, 0.3)
		seek := int32(rng.Intn(d.Size()))
		for _, a := range cursorAxes {
			o := &Options{Variant: SkipEstimate, Stats: &Stats{}}
			want, err := Join(d, a, context, &Options{Variant: SkipEstimate})
			if err != nil {
				t.Fatal(err)
			}
			cur, err := NewJoinCursor(d, a, SliceSource(context), o)
			if err != nil {
				t.Fatal(err)
			}
			checkSeek(t, cur, seek, want, 1+rng.Intn(40))

			wantList, _ := JoinNodeList(d, a, list, context, nil)
			lcur, err := NewJoinNodeListCursor(d, a, list, SliceSource(context), nil)
			if err != nil {
				t.Fatal(err)
			}
			checkSeek(t, lcur, seek, wantList, 1+rng.Intn(40))
		}
	}
}

func checkSeek(t *testing.T, c JoinCursor, seek int32, want []int32, batch int) {
	t.Helper()
	var got []int32
	for {
		b, err := c.Next(make([]int32, 0, batch), seek)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		got = append(got, b...)
	}
	// The tail of want from the seek point must be produced verbatim;
	// anything before it may or may not be.
	tail := want[searchList(want, seek):]
	if len(got) < len(tail) || !eq32(got[len(got)-len(tail):], tail) {
		t.Fatalf("seek(%d): tail mismatch\n got %v\nwant tail %v", seek, got, tail)
	}
	// Everything produced must be a subset of the full result.
	for _, v := range got {
		i := searchList(want, v)
		if i >= len(want) || want[i] != v {
			t.Fatalf("seek(%d): produced %d not in full result %v", seek, v, want)
		}
	}
}

// TestCursorStatsEqualGolden: drained to exhaustion, every cursor kernel
// visits exactly the nodes Join or JoinNodeList visits — the rows of
// testdata/stats_golden.json — whatever the window. ContextSize is the
// exception for following, whose cursors stop reading the context at
// the first node beyond the first context node's subtree.
func TestCursorStatsEqualGolden(t *testing.T) {
	d, contexts, list := goldenFixture(t)
	b, err := os.ReadFile(filepath.Join("testdata", "stats_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenCounters
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, a := range partitioningAxes {
		for _, v := range []Variant{NoSkip, Skip, SkipEstimate} {
			for ci, ctx := range contexts {
				for _, kernel := range []string{"document", "node-list"} {
					for _, window := range []int{7, 256} {
						var st Stats
						o := &Options{Variant: v, Stats: &st}
						var cur JoinCursor
						if kernel == "document" {
							cur, err = NewJoinCursor(d, a, SliceSource(ctx), o)
						} else {
							cur, err = NewJoinNodeListCursor(d, a, list, SliceSource(ctx), o)
						}
						if err != nil {
							t.Fatal(err)
						}
						n := len(drainCursor(t, cur, window))
						key := fmt.Sprintf("%v/%v/%s/ctx%d", a, v, kernel, ci)
						w, ok := want[key]
						if !ok {
							t.Fatalf("%s: no golden row", key)
						}
						if a == axis.Following {
							if st.ContextSize > w.ContextSize {
								t.Errorf("%s: cursor read %d context nodes, batch %d", key, st.ContextSize, w.ContextSize)
							}
							w.ContextSize = st.ContextSize
						}
						if g := (goldenCounters{st.ContextSize, st.PrunedSize, st.Scanned, st.Copied, st.Compared, st.Skipped}); g != w {
							t.Errorf("%s, window %d: cursor counters %+v, golden %+v", key, window, g, w)
						}
						if st.Result != int64(n) {
							t.Errorf("%s, window %d: Stats.Result %d, %d nodes emitted", key, window, st.Result, n)
						}
						checked++
					}
				}
			}
		}
	}
	if checked != 2*len(want) {
		t.Errorf("checked %d cursor configurations against %d golden rows", checked, len(want))
	}
}

// TestQuickListCursorSeekHints drives the list cursors — whose
// partition, copy-phase, subtree-jump and seek positions all come from
// searchFrom — over random staircases with a seek hint that rises from
// call to call: whatever the hints and windows, the output is a strictly
// increasing subset of JoinNodeList over the same list (located there
// by searchList), and holds every result node from the last hint on.
func TestQuickListCursorSeekHints(t *testing.T) {
	f := func(seed int64, ctxBits uint16, axisPick, variantPick, window uint8) bool {
		d, context := docFromSeed(seed, ctxBits)
		rng := rand.New(rand.NewSource(seed))
		list := randomList(rng, d, 0.1+0.8*rng.Float64())
		a := cursorAxes[axisPick%4]
		o := &Options{Variant: []Variant{NoSkip, Skip, SkipEstimate}[variantPick%3]}
		want, err := JoinNodeList(d, a, list, context, o)
		if err != nil {
			return false
		}
		cur, err := NewJoinNodeListCursor(d, a, list, SliceSource(context), o)
		if err != nil {
			return false
		}
		var got []int32
		seek := int32(0)
		for {
			b, err := cur.Next(make([]int32, 0, 1+int(window%40)), seek)
			if err != nil {
				return false
			}
			if b == nil {
				break
			}
			got = append(got, b...)
			if rng.Intn(3) == 0 {
				seek += int32(rng.Intn(d.Size()/4 + 1))
			}
		}
		for i, v := range got {
			if j := searchList(want, v); j == len(want) || want[j] != v || i > 0 && got[i-1] >= v {
				return false
			}
		}
		tail := want[searchList(want, seek):]
		return len(got) >= len(tail) && eq32(got[len(got)-len(tail):], tail)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
