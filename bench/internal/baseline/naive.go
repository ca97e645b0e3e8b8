// Package baseline implements the paper's experiment subjects that the
// product path does not run:
//
//   - Naive per-context-node region queries with subsequent sort and
//     duplicate elimination (Experiment 1, Figure 11 (a)): the context
//     regions overlap, so the same node is produced many times.
//   - The SQL query plan of Figure 3 — a B-tree indexed nested-loop
//     (semi)join with range-delimited index scans, optionally tightened
//     by the Equation (1) window predicate (§2.1, query line 7) and
//     optionally using concatenated (tag, pre, post) keys for the early
//     name test the paper observed in IBM DB2 (Experiment 3).
//   - MPMGJN, the multi-predicate merge join of Zhang et al. (SIGMOD
//     2001), the closest related structural join (§5): interval
//     containment aware, but without pruning and skipping.
//   - The staircase join's own ancestor scan, Algorithm 2 with the
//     skipping of Algorithm 3 (AncestorJoin), which the paper's ancestor
//     experiments measure; core.Join climbs the parent column instead.
package baseline

import (
	"sort"

	"staircase/internal/axis"
	"staircase/internal/doc"
)

// NaiveStats counts the work of the naive evaluation strategy.
type NaiveStats struct {
	// Produced is the total number of result nodes across all
	// per-context region queries, duplicates included.
	Produced int64
	// Duplicates is Produced minus the distinct result size — the
	// nodes the staircase join never generates (Figure 11 (a)).
	Duplicates int64
	// Scanned counts document nodes touched by the region scans.
	Scanned int64
	// Result is the distinct result size.
	Result int64
}

// NaiveJoin evaluates an axis step the naive way: one region query per
// context node, concatenation, sort, duplicate elimination. The result
// equals the staircase join result; the cost does not. Attribute nodes
// are filtered as in the paper.
func NaiveJoin(d *doc.Document, a axis.Axis, context []int32, st *NaiveStats) []int32 {
	post := d.PostSlice()
	kind := d.KindSlice()
	var all []int32
	for _, c := range context {
		w := axis.RegionWindow(d, a, c)
		if w.Empty() {
			continue
		}
		lo, hi := w.PreLo, w.PreHi
		if lo < 0 {
			lo = 0
		}
		if n := int32(d.Size()); hi >= n {
			hi = n - 1
		}
		for v := lo; v <= hi; v++ {
			if st != nil {
				st.Scanned++
			}
			if post[v] < w.PostLo || post[v] > w.PostHi {
				continue
			}
			if kind[v] == doc.Attr {
				continue
			}
			all = append(all, v)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out := all[:0]
	for i, v := range all {
		if i > 0 && v == all[i-1] {
			continue
		}
		out = append(out, v)
	}
	// Copy to release the (possibly much larger) backing array.
	res := append([]int32(nil), out...)
	if st != nil {
		st.Produced += int64(len(all))
		st.Result += int64(len(res))
		st.Duplicates += int64(len(all)) - int64(len(res))
	}
	return res
}
