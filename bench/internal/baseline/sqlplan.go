package baseline

import (
	"fmt"
	"sort"
	"sync/atomic"

	"staircase/bench/internal/btree"
	"staircase/internal/axis"
	"staircase/internal/doc"
)

// SQLEngine evaluates axis steps the way the paper's analyzed IBM DB2
// plan does (Figure 3): a nested-loop join whose inner input is a
// B-tree index range scan, with the region predicates acting as scan
// delimiters, followed by duplicate elimination over pre-sorted output.
//
// Two indexes are kept, mirroring the paper:
//
//	prepost: concatenated (pre, post) keys          — the base index
//	tagged:  concatenated (tag, pre, post) keys     — the early name
//	         test index DB2 actually used (Experiment 3 note)
//
// The engine is "tree-unaware with a knob": SQLOptions.UseWindow adds
// the Equation (1) predicate of §2.1 (query line 7) that a tree-aware
// optimizer could derive, shrinking the descendant scan range from the
// document tail to the context subtree.
type SQLEngine struct {
	d       *doc.Document
	prepost *btree.Tree
	tagged  *btree.Tree
	// Stats accumulates index work across Step calls.
	Stats btree.Stats
	// JoinStats accumulates join-level work across Step calls.
	JoinStats SQLJoinStats
}

// SQLJoinStats counts plan-level work of the SQL baseline.
type SQLJoinStats struct {
	// Produced counts join output tuples before duplicate elimination.
	Produced int64
	// Duplicates counts tuples removed by the unique operator.
	Duplicates int64
	// Result counts distinct result nodes.
	Result int64
}

// SQLOptions configures one Step evaluation.
type SQLOptions struct {
	// UseWindow applies the Equation (1) window predicate (§2.1 line 7)
	// to delimit descendant index scans.
	UseWindow bool
	// Tag, when non-empty, evaluates the step with an early name test
	// over the (tag, pre, post) index: only nodes with this tag are
	// scanned and returned.
	Tag string
}

// NewSQLEngine builds both indexes over the document. Index build is
// the analogue of CREATE INDEX at document load time.
func NewSQLEngine(d *doc.Document) *SQLEngine {
	e := &SQLEngine{d: d}
	n := d.Size()
	post := d.PostSlice()

	keys := make([]btree.Key, n)
	vals := make([]int32, n)
	for i := 0; i < n; i++ {
		keys[i] = btree.Key{A: int32(i), B: post[i]}
		vals[i] = int32(i)
	}
	e.prepost = btree.BulkLoad(keys, vals, &e.Stats)

	// Tag index: (tag, pre, post), elements only, sorted by tag then pre.
	name := d.NameSlice()
	kind := d.KindSlice()
	type ent struct{ tag, pre, post int32 }
	var ents []ent
	for i := 0; i < n; i++ {
		if kind[i] == doc.Elem && name[i] != doc.NoName {
			ents = append(ents, ent{name[i], int32(i), post[i]})
		}
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].tag != ents[j].tag {
			return ents[i].tag < ents[j].tag
		}
		return ents[i].pre < ents[j].pre
	})
	tkeys := make([]btree.Key, len(ents))
	tvals := make([]int32, len(ents))
	for i, en := range ents {
		tkeys[i] = btree.Key{A: en.tag, B: en.pre, C: en.post}
		tvals[i] = en.pre
	}
	e.tagged = btree.BulkLoad(tkeys, tvals, &e.Stats)
	return e
}

// Step evaluates one axis step for the whole context sequence: the
// outer loop iterates the pre-sorted context, the inner input is an
// index range scan per context node, results are concatenated, sorted
// and made distinct (the unique operator the paper's plan needs).
// Supported axes are the four partitioning axes.
func (e *SQLEngine) Step(a axis.Axis, context []int32, opts SQLOptions) ([]int32, error) {
	if !a.Partitioning() {
		return nil, fmt.Errorf("baseline: SQL plan handles partitioning axes only, got %v", a)
	}
	var all []int32
	for _, c := range context {
		w := axis.RegionWindow(e.d, a, c)
		if opts.UseWindow {
			w = axis.TightWindow(e.d, a, c)
		}
		if w.Empty() {
			continue
		}
		if opts.Tag != "" {
			tagID, ok := e.d.Names().Lookup(opts.Tag)
			if !ok {
				continue
			}
			lo := btree.Key{A: tagID, B: w.PreLo, C: -1 << 31}
			hi := btree.Key{A: tagID, B: w.PreHi, C: 1<<31 - 1}
			e.tagged.Scan(lo, hi, func(k btree.Key, v int32) bool {
				if k.C >= w.PostLo && k.C <= w.PostHi {
					all = append(all, v)
				}
				return true
			})
			continue
		}
		lo := btree.Key{A: w.PreLo, B: -1 << 31}
		hi := btree.Key{A: w.PreHi, B: 1<<31 - 1}
		kind := e.d.KindSlice()
		e.prepost.Scan(lo, hi, func(k btree.Key, v int32) bool {
			// The post predicate is "sufficiently simple to be
			// evaluated during the B-tree index scan" (§2.1).
			if k.B >= w.PostLo && k.B <= w.PostHi && kind[v] != doc.Attr {
				all = append(all, v)
			}
			return true
		})
	}
	// ORDER BY v.pre + DISTINCT: sort and unique.
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out := make([]int32, 0, len(all))
	for i, v := range all {
		if i > 0 && v == all[i-1] {
			continue
		}
		out = append(out, v)
	}
	atomic.AddInt64(&e.JoinStats.Produced, int64(len(all)))
	atomic.AddInt64(&e.JoinStats.Result, int64(len(out)))
	atomic.AddInt64(&e.JoinStats.Duplicates, int64(len(all)-len(out)))
	return out, nil
}
