package baseline

import (
	"sort"

	"staircase/internal/doc"
)

// IndexJoinStats counts the work of the indexed structural join.
type IndexJoinStats struct {
	// Probes counts index probes: one per parent-pointer hop.
	Probes int64
	// Touched counts nodes inspected: one per hop, as Probes.
	Touched int64
	// Produced counts output nodes before duplicate elimination.
	Produced int64
	// Result counts distinct result nodes.
	Result int64
}

// IndexedAncestorJoin stands in for the indexed structural join of
// Chien et al. (VLDB 2002, [5] in the paper), the §5 comparator that
// evaluates ancestor steps with skipping through an index. It reads no
// index: per context node it climbs the parent pointers to the root
// and charges one probe per hop, the probe pattern of the
// ancestor-list algorithms of [5]. Unlike the staircase join it does
// not prune the context, so nested context nodes climb shared paths
// again and produce duplicates that a final sort/unique pass removes.
// The (pre, post) B+-tree of package btree serves only the SQL plans.
func IndexedAncestorJoin(d *doc.Document, context []int32, st *IndexJoinStats) []int32 {
	var all []int32
	for _, c := range context {
		for p := d.Parent(c); p != doc.NoParent; p = d.Parent(p) {
			if st != nil {
				st.Probes++
				st.Touched++
			}
			all = append(all, p)
		}
	}
	if st != nil {
		st.Produced += int64(len(all))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out := make([]int32, 0, len(all))
	for i, v := range all {
		if i > 0 && v == all[i-1] {
			continue
		}
		out = append(out, v)
	}
	if st != nil {
		st.Result += int64(len(out))
	}
	return out
}
