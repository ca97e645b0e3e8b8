package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"staircase/internal/axis"
	"staircase/internal/doc"
	"staircase/internal/spec"
)

// testing/quick property tests over seed-generated documents and
// contexts: quick drives the seeds, so shrinking-style exploration of
// the input space is delegated to the deterministic generators.

// docFromSeed derives a random document and a non-empty document-order
// context from quick inputs; ctxBits varies the context density.
func docFromSeed(seed int64, ctxBits uint16) (*doc.Document, []int32) {
	rng := rand.New(rand.NewSource(seed ^ int64(ctxBits)<<17))
	d := randomDoc(rng, 80+int(uint16(seed)%120))
	density := 2 + int(ctxBits%12)
	var context []int32
	for v := 0; v < d.Size(); v++ {
		if rng.Intn(density) == 0 {
			context = append(context, int32(v))
		}
	}
	if len(context) == 0 {
		context = []int32{int32(int(ctxBits) % d.Size())}
	}
	return d, context
}

func TestQuickJoinEqualsSpec(t *testing.T) {
	f := func(seed int64, ctxBits uint16, axisPick uint8, variantPick uint8) bool {
		d, context := docFromSeed(seed, ctxBits)
		a := []axis.Axis{axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding}[axisPick%4]
		v := []Variant{NoSkip, Skip, SkipEstimate}[variantPick%3]
		got, err := Join(d, a, context, &Options{Variant: v})
		if err != nil {
			return false
		}
		return eq32(got, spec.Join(d, a, context))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPruneIdempotent(t *testing.T) {
	f := func(seed int64, ctxBits uint16) bool {
		d, context := docFromSeed(seed, ctxBits)
		p1 := PruneDescendant(d, context)
		p2 := PruneDescendant(d, p1)
		if !eq32(p1, p2) {
			return false
		}
		a1 := PruneAncestor(d, context)
		a2 := PruneAncestor(d, a1)
		return eq32(a1, a2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickJoinMonotoneInContext(t *testing.T) {
	// Adding context nodes can only grow the result (axis steps are
	// unions of per-node regions).
	f := func(seed int64, ctxBits uint16) bool {
		d, context := docFromSeed(seed, ctxBits)
		if len(context) < 2 {
			return true
		}
		sub := context[:len(context)/2]
		for _, a := range []axis.Axis{axis.Descendant, axis.Ancestor} {
			small, err1 := Join(d, a, sub, nil)
			big, err2 := Join(d, a, context, nil)
			if err1 != nil || err2 != nil {
				return false
			}
			inBig := make(map[int32]bool, len(big))
			for _, v := range big {
				inBig[v] = true
			}
			for _, v := range small {
				if !inBig[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDescAncestorGaloisConnection(t *testing.T) {
	// v ∈ desc(c) ⇔ c ∈ anc(v): spot-check the adjunction through the
	// join results themselves.
	f := func(seed int64, ctxBits uint16) bool {
		d, context := docFromSeed(seed, ctxBits)
		c := context[0]
		desc, err := Join(d, axis.Descendant, []int32{c}, &Options{Emit: Emit{Kinds: AllKinds}})
		if err != nil {
			return false
		}
		for i := 0; i < len(desc) && i < 10; i++ {
			anc, err := Join(d, axis.Ancestor, []int32{desc[i]}, &Options{Emit: Emit{Kinds: AllKinds}})
			if err != nil {
				return false
			}
			found := false
			for _, u := range anc {
				if u == c {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOrSelfSupersets(t *testing.T) {
	f := func(seed int64, ctxBits uint16) bool {
		d, context := docFromSeed(seed, ctxBits)
		desc, err := Join(d, axis.Descendant, context, nil)
		if err != nil {
			return false
		}
		merged := MergeOrSelf(desc, context)
		// merged is strictly increasing and contains both inputs.
		for i := 1; i < len(merged); i++ {
			if merged[i-1] >= merged[i] {
				return false
			}
		}
		return len(merged) >= len(desc) && len(merged) >= len(context)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
