package baseline

import "staircase/internal/doc"

// MPMGJNStats counts the work of the multi-predicate merge join.
type MPMGJNStats struct {
	// Touched counts list entries inspected, including the re-scans of
	// the inner list that staircase join avoids (§5: MPMGJN "lacks
	// further tree awareness: due to pruning and skipping, staircase
	// join touches and tests less nodes").
	Touched int64
	// Produced counts output pairs before duplicate elimination.
	Produced int64
	// Result counts distinct result nodes.
	Result int64
}

// MPMGJNAncestor computes the distinct ancestors of any context node
// with the merge-join strategy: the document list provides potential
// ancestors in pre order, the context provides the descendants. For
// each potential ancestor the context is scanned from the current merge
// position for a contained node (the multi-predicate check).
func MPMGJNAncestor(d *doc.Document, context []int32, st *MPMGJNStats) []int32 {
	post := d.PostSlice()
	kind := d.KindSlice()
	n := int32(d.Size())
	var out []int32

	ci := 0 // merge cursor over the context list
	for a := int32(0); a < n; a++ {
		if st != nil {
			st.Touched++
		}
		if kind[a] == doc.Attr {
			continue
		}
		aEnd := post[a]
		// Advance the context cursor past nodes that precede a.
		for ci < len(context) && context[ci] <= a {
			// context[ci] == a cannot be its own ancestor; nodes with
			// pre <= pre(a) can never be contained in a's interval.
			ci++
			if st != nil {
				st.Touched++
			}
		}
		// Scan the context from the merge position for a witness
		// contained in a's interval; stop once beyond the interval.
		for cj := ci; cj < len(context); cj++ {
			if st != nil {
				st.Touched++
			}
			c := context[cj]
			if c > a+d.SubtreeSize(a) { // past a's subtree window
				break
			}
			if post[c] < aEnd {
				out = append(out, a)
				break
			}
		}
	}
	if st != nil {
		st.Produced += int64(len(out))
		st.Result += int64(len(out))
	}
	return out
}
