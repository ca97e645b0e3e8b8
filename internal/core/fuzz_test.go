package core

import (
	"math/rand"
	"testing"

	"staircase/internal/axis"
	"staircase/internal/doc"
	"staircase/internal/spec"
)

// fuzzEmits are the emit tests FuzzKernelWindows draws from. None passes
// attributes, so spec.Join filtered by the test is the reference.
var fuzzEmits = []Emit{
	{},
	{Kinds: 1 << doc.Text},
	{Kinds: 1 << doc.Elem},
	{Kinds: 1 << doc.Elem, ByName: true, Name: 1},
	{Kinds: 1<<doc.Comment | 1<<doc.PI},
	{Kinds: NoKinds},
}

// FuzzKernelWindows drives every cursor kernel through random windows
// and seeks: one body serves both faces, so a drained cursor must equal
// the unbounded run (Join, JoinNodeList), which must equal the
// specification filtered by the emit test (document kernels) or
// intersected with the list (node-list kernels). Without seeks the
// drained counters equal the unbounded run's too, but for following's
// ContextSize: the cursor stops reading its source early.
//
// pick selects, bit field by bit field: the axis, the variant, the emit
// test, the node-list kernel, seeking and OrSelf (document descendant and
// ancestor; the reference is then the or-self axis). Each byte of steps
// sizes one Next's window and, when seeking, raises the seek hint.
func FuzzKernelWindows(f *testing.F) {
	f.Add(int64(1), uint16(3), uint16(0), []byte{1, 2, 3})
	f.Add(int64(7), uint16(900), uint16(0x1ff), []byte{40, 1, 0, 255})
	f.Add(int64(-5), uint16(17), uint16(0xd5), []byte{})
	f.Add(int64(42), uint16(0xffff), uint16(0x12a), []byte{7, 7, 7, 7, 7, 7})
	f.Add(int64(3), uint16(5), uint16(0x201), []byte{0, 2, 1})
	f.Add(int64(9), uint16(40), uint16(0x231), []byte{3})
	f.Fuzz(func(t *testing.T, seed int64, ctxBits, pick uint16, steps []byte) {
		d, context := docFromSeed(seed, ctxBits)
		rng := rand.New(rand.NewSource(seed))
		a := cursorAxes[pick&3]
		v := []Variant{NoSkip, Skip, SkipEstimate}[int(pick>>2&3)%3]
		e := fuzzEmits[int(pick>>4&7)%len(fuzzEmits)]
		useList, seeking := pick>>7&1 == 1, pick>>8&1 == 1
		orSelf := pick>>9&1 == 1 && !useList && (a == axis.Descendant || a == axis.Ancestor)

		refAxis := a
		if orSelf && a == axis.Descendant {
			refAxis = axis.DescendantOrSelf
		} else if orSelf {
			refAxis = axis.AncestorOrSelf
		}
		ref := spec.Join(d, refAxis, context)
		var list []int32
		var want []int32
		var joined Stats
		var err error
		if useList {
			list = randomList(rng, d, 0.1+0.8*rng.Float64())
			ref = inList(ref, list)
			want, err = JoinNodeList(d, a, list, context, &Options{Variant: v, Emit: e, Stats: &joined})
		} else {
			ref = passing(d, ref, e)
			want, err = Join(d, a, context, &Options{Variant: v, Emit: e, OrSelf: orSelf, Stats: &joined})
		}
		if err != nil {
			t.Fatal(err)
		}
		if !eq32(want, ref) {
			t.Fatalf("%v/%v emit %+v list %v: unbounded run\n got %v\nwant %v", a, v, e, useList, want, ref)
		}

		var drained Stats
		o := &Options{Variant: v, Emit: e, OrSelf: orSelf, Stats: &drained}
		var cur JoinCursor
		if useList {
			cur, err = NewJoinNodeListCursor(d, a, list, SliceSource(context), o)
		} else {
			cur, err = NewJoinCursor(d, a, SliceSource(context), o)
		}
		if err != nil {
			t.Fatal(err)
		}
		var got []int32
		seek := int32(0)
		for i := 0; ; i++ {
			window := 1 + rng.Intn(40)
			if len(steps) > 0 {
				window = 1 + int(steps[i%len(steps)])%64
			}
			b, err := cur.Next(make([]int32, 0, window), seek)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			if len(b) > window {
				t.Fatalf("%d nodes from a window of %d", len(b), window)
			}
			got = append(got, b...)
			if seeking && window%3 == 0 {
				seek += int32(window)
			}
		}
		for i, n := range got {
			if j := searchList(want, n); j == len(want) || want[j] != n || i > 0 && got[i-1] >= n {
				t.Fatalf("%v/%v: cursor produced %v, not an increasing subset of %v", a, v, got, want)
			}
		}
		tail := want[searchList(want, seek):]
		if len(got) < len(tail) || !eq32(got[len(got)-len(tail):], tail) {
			t.Fatalf("%v/%v seek %d: cursor\n got %v\nwant tail %v", a, v, seek, got, tail)
		}
		if seek > 0 {
			return
		}
		if a == axis.Following && drained.ContextSize <= joined.ContextSize {
			joined.ContextSize = drained.ContextSize
		}
		if drained != joined {
			t.Fatalf("%v/%v list %v: drained counters %+v, unbounded run %+v", a, v, useList, drained, joined)
		}
	})
}

// passing keeps the nodes that pass e.
func passing(d *doc.Document, nodes []int32, e Emit) []int32 {
	var out []int32
	for _, v := range nodes {
		if e.Pass(d.KindOf(v), d.NameID(v)) {
			out = append(out, v)
		}
	}
	return out
}
