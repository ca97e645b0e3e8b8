package core

// This file implements the partition-parallel staircase join the paper
// sketches in §3.2 and lists under Future Research (§6): "it should be
// obvious that the partitioned pre/post plane naturally leads to a
// parallel XPath execution strategy".
//
// The parallelism rests on the *partitioning invariant* pruning buys:
// after pruning, the staircase partitions of the context nodes scan
// pairwise disjoint, contiguous pre-rank ranges that together cover the
// relevant part of the document exactly once. Splitting the pruned
// staircase into contiguous chunks therefore yields K independent
// sub-joins over disjoint document regions; each worker's result is
// duplicate-free and in document order on its own, and because chunk i
// only ever emits pre ranks strictly below every pre rank chunk i+1 can
// emit, plain concatenation of the per-worker results reconstructs the
// serial answer byte for byte — no merge, no sort, no unique.
//
// The scan delimiters that make the sub-joins independent are the
// ScanLimit/ScanStart fields of Options: a descendant worker stops
// before the next chunk's first context node, an ancestor worker starts
// after the previous chunk's last context node. Following and preceding
// degenerate to a single region query after pruning (§3.1), which is
// parallelised by slicing the region itself.

import (
	"sync"

	"staircase/internal/axis"
	"staircase/internal/doc"
	"staircase/internal/fault"
)

// panicBox collects the first panic of a worker pool so the caller
// can rethrow it on its own goroutine after wg.Wait: the containment
// boundaries above (server evaluation, pace-car drive) can only
// recover panics that unwind the goroutine they run on — a raw panic
// inside a worker would kill the whole process instead of failing one
// query.
type panicBox struct {
	mu  sync.Mutex
	val any
}

// capture must be deferred inside the worker, after wg.Done is
// already deferred (LIFO: capture recovers first, then Done fires).
func (b *panicBox) capture() {
	if v := recover(); v != nil {
		pe := fault.NewPanicError(v) // worker stack captured here
		b.mu.Lock()
		if b.val == nil {
			b.val = pe
		}
		b.mu.Unlock()
	}
}

// rethrow re-raises the first captured panic on the caller's
// goroutine; a no-op when every worker finished cleanly.
func (b *panicBox) rethrow() {
	if b.val != nil {
		panic(b.val)
	}
}

// Chunk is one worker's contiguous share of a pruned staircase:
// context[Lo:Hi]. Chunks produced by PartitionStaircase are non-empty,
// adjacent and cover the whole context.
type Chunk struct {
	Lo, Hi int
}

// PartitionStaircase splits a pruned staircase context into at most
// `workers` contiguous chunks, balancing the document pre range each
// chunk scans rather than the number of context nodes per chunk (a
// single staircase step may cover most of the document; equal-count
// splitting would serialise exactly the expensive inputs).
//
// spanLo and spanHi delimit the total pre range the join will scan:
// (context[0], size) for the descendant axis, [0, context[last]] for
// the ancestor axis. Cut points are placed at equal fractions of that
// span and snapped to the next staircase boundary.
//
// The result is nil for an empty context, and a single chunk when
// workers <= 1 or the context has a single node. K > len(context)
// clamps to one chunk per context node.
func PartitionStaircase(context []int32, workers int, spanLo, spanHi int32) []Chunk {
	k := len(context)
	if k == 0 {
		return nil
	}
	if workers > k {
		workers = k
	}
	if workers < 1 {
		workers = 1
	}
	if spanHi < spanLo {
		spanHi = spanLo
	}
	span := int64(spanHi) - int64(spanLo)
	chunks := make([]Chunk, 0, workers)
	lo := 0
	for w := 0; w < workers && lo < k; w++ {
		hi := k
		if w+1 < workers {
			target := spanLo + int32(span*int64(w+1)/int64(workers))
			// Snap to the first staircase boundary at or beyond the
			// target, but always advance by at least one context node.
			hi = lo + 1 + searchList(context[lo+1:], target)
		}
		chunks = append(chunks, Chunk{Lo: lo, Hi: hi})
		lo = hi
	}
	return chunks
}

// ParallelJoin evaluates an axis step along one of the four
// partitioning axes with the staircase join, fanning the partitioned
// scan out over at most `workers` goroutines. workers <= 1 degrades to
// the serial Join. Results are guaranteed identical to the serial join:
// workers operate on disjoint pre ranges (see the file comment), so the
// concatenated output is the same duplicate-free document-order
// sequence.
func ParallelJoin(d *doc.Document, a axis.Axis, context []int32, workers int, opts *Options) ([]int32, error) {
	switch a {
	case axis.Descendant:
		return ParallelDescendantJoin(d, context, workers, opts), nil
	case axis.Ancestor:
		return ParallelAncestorJoin(d, context, workers, opts), nil
	case axis.Following:
		return ParallelFollowingJoin(d, context, workers, opts), nil
	case axis.Preceding:
		return ParallelPrecedingJoin(d, context, workers, opts), nil
	default:
		return nil, errNonPartitioning(a)
	}
}

// ParallelDescendantJoin is the partition-parallel variant of
// DescendantJoin. The context is pruned once up front (the staircase
// boundaries are what makes the split sound, so pruning cannot be
// folded into the workers); chunk i's scan is delimited by chunk i+1's
// first context node. Any ScanLimit/ScanStart in opts is owned by the
// driver and ignored.
func ParallelDescendantJoin(d *doc.Document, context []int32, workers int, opts *Options) []int32 {
	o := opts.orDefault()
	if workers <= 1 {
		return DescendantJoin(d, context, o)
	}
	st := o.Stats
	if st != nil {
		st.ContextSize += int64(len(context))
	}
	pruned := context
	if !o.AssumePruned {
		pruned = PruneDescendant(d, context)
	}
	if len(pruned) == 0 {
		return nil
	}
	chunks := PartitionStaircase(pruned, workers, pruned[0], int32(d.Size()))
	if st != nil {
		st.Workers = int64(len(chunks))
	}
	results := make([][]int32, len(chunks))
	stats := make([]Stats, len(chunks))
	var wg sync.WaitGroup
	var pb panicBox
	for i, ch := range chunks {
		wg.Add(1)
		go func(i int, ch Chunk) {
			defer wg.Done()
			defer pb.capture()
			wo := *o
			wo.AssumePruned = true
			wo.ScanStart = 0
			wo.ScanLimit = 0
			wo.Stats = &stats[i]
			if ch.Hi < len(pruned) {
				limit := pruned[ch.Hi] - 1
				if limit <= 0 {
					// The next chunk starts at pre rank 1: nothing lies
					// between this chunk's context nodes and the
					// boundary (and ScanLimit 0 would mean "unbounded").
					stats[i].ContextSize = int64(ch.Hi - ch.Lo)
					stats[i].PrunedSize = int64(ch.Hi - ch.Lo)
					return
				}
				wo.ScanLimit = limit
			}
			results[i] = DescendantJoin(d, pruned[ch.Lo:ch.Hi], &wo)
		}(i, ch)
	}
	wg.Wait()
	pb.rethrow()
	mergeWorkerStats(st, stats)
	return concat32(results)
}

// ParallelAncestorJoin is the partition-parallel variant of
// AncestorJoin: chunk i's first partition starts right after chunk
// i-1's last context node, so the chunks scan disjoint pre ranges.
func ParallelAncestorJoin(d *doc.Document, context []int32, workers int, opts *Options) []int32 {
	o := opts.orDefault()
	if workers <= 1 {
		return AncestorJoin(d, context, o)
	}
	st := o.Stats
	if st != nil {
		st.ContextSize += int64(len(context))
	}
	pruned := context
	if !o.AssumePruned {
		pruned = PruneAncestor(d, context)
	}
	if len(pruned) == 0 {
		return nil
	}
	chunks := PartitionStaircase(pruned, workers, 0, pruned[len(pruned)-1])
	if st != nil {
		st.Workers = int64(len(chunks))
	}
	results := make([][]int32, len(chunks))
	stats := make([]Stats, len(chunks))
	var wg sync.WaitGroup
	var pb panicBox
	for i, ch := range chunks {
		wg.Add(1)
		go func(i int, ch Chunk) {
			defer wg.Done()
			defer pb.capture()
			wo := *o
			wo.AssumePruned = true
			wo.ScanStart = 0
			wo.ScanLimit = 0
			wo.Stats = &stats[i]
			if ch.Lo > 0 {
				// Earlier partitions belong to earlier workers.
				wo.ScanStart = pruned[ch.Lo-1] + 1
			}
			results[i] = AncestorJoin(d, pruned[ch.Lo:ch.Hi], &wo)
		}(i, ch)
	}
	wg.Wait()
	pb.rethrow()
	mergeWorkerStats(st, stats)
	return concat32(results)
}

// ParallelFollowingJoin is the parallel variant of FollowingJoin. After
// pruning the axis is a single region query — every node beyond the
// subtree of the minimum-post context node (§3.1) — so the region
// itself is sliced into near-equal pre ranges, one per worker.
func ParallelFollowingJoin(d *doc.Document, context []int32, workers int, opts *Options) []int32 {
	o := opts.orDefault()
	if workers <= 1 {
		return FollowingJoin(d, context, o)
	}
	st := o.Stats
	if st != nil {
		st.ContextSize += int64(len(context))
	}
	c, ok := ReduceFollowing(d, context)
	if !ok {
		return nil
	}
	if st != nil {
		st.PrunedSize++
	}
	e := o.Emit.cols(d)
	n := int32(d.Size())
	start := c + 1 + d.SubtreeSize(c) // first pre after c's subtree
	if st != nil && start < n {
		st.Scanned += int64(n - start)
		st.Copied += int64(n - start)
	}
	result := parallelRangeScan(start, n, workers, st, e.pass)
	if st != nil {
		st.addResult(int64(len(result)))
	}
	return result
}

// ParallelPrecedingJoin is the parallel variant of PrecedingJoin: the
// single scan of [0, c) against the maximum-pre context node's post
// rank is sliced into near-equal pre ranges, one per worker.
func ParallelPrecedingJoin(d *doc.Document, context []int32, workers int, opts *Options) []int32 {
	o := opts.orDefault()
	if workers <= 1 {
		return PrecedingJoin(d, context, o)
	}
	st := o.Stats
	if st != nil {
		st.ContextSize += int64(len(context))
	}
	c, ok := ReducePreceding(d, context)
	if !ok {
		return nil
	}
	if st != nil {
		st.PrunedSize++
		st.Scanned += int64(c)
		st.Compared += int64(c)
	}
	post := d.PostSlice()
	e := o.Emit.cols(d)
	bound := post[c]
	result := parallelRangeScan(0, c, workers, st, func(v int32) bool {
		return post[v] < bound && e.pass(v)
	})
	if st != nil {
		st.addResult(int64(len(result)))
	}
	return result
}

// parallelRangeScan filters the pre range [lo, hi) through keep on at
// most `workers` goroutines over near-equal contiguous slices and
// concatenates the per-slice outputs (document order is preserved: the
// slices are ascending and disjoint). Records the worker count in st.
func parallelRangeScan(lo, hi int32, workers int, st *Stats, keep func(int32) bool) []int32 {
	if hi <= lo {
		return nil
	}
	size := int64(hi) - int64(lo)
	if int64(workers) > size {
		workers = int(size)
	}
	if st != nil {
		st.Workers = int64(workers)
	}
	results := make([][]int32, workers)
	var wg sync.WaitGroup
	var pb panicBox
	for w := 0; w < workers; w++ {
		from := lo + int32(size*int64(w)/int64(workers))
		to := lo + int32(size*int64(w+1)/int64(workers))
		wg.Add(1)
		go func(w int, from, to int32) {
			defer wg.Done()
			defer pb.capture()
			out := make([]int32, 0, to-from)
			for v := from; v < to; v++ {
				if keep(v) {
					out = append(out, v)
				}
			}
			results[w] = out
		}(w, from, to)
	}
	wg.Wait()
	pb.rethrow()
	return concat32(results)
}

// mergeWorkerStats folds per-worker counters into the caller's Stats.
// ContextSize and Workers are owned by the parallel driver (workers see
// the already-pruned context, so their ContextSize would double count).
func mergeWorkerStats(dst *Stats, parts []Stats) {
	if dst == nil {
		return
	}
	for i := range parts {
		p := &parts[i]
		dst.PrunedSize += p.PrunedSize
		dst.Scanned += p.Scanned
		dst.Copied += p.Copied
		dst.Compared += p.Compared
		dst.Skipped += p.Skipped
		dst.Result += p.Result
	}
}

// concat32 joins per-worker result slices; the workers' pre ranges are
// disjoint and ascending, so concatenation preserves document order.
func concat32(parts [][]int32) []int32 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int32, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
