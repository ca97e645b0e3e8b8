package core

// Morsel-driven staircase join: the partition-parallel execution of
// parallel.go recast as a JoinCursor, so a single streaming pipeline
// can use every core without giving up bounded batches or document
// order.
//
// The batch Parallel*Join splits the pruned staircase into one chunk
// per worker and concatenates fully materialised results. That shape
// is wrong for streaming twice over: the caller must wait for the
// slowest worker before seeing byte one, and a LIMIT consumer pays
// for the entire document. The morsel cursor instead cuts the work
// into many small tasks ("morsels" in the HyPer sense), each a
// self-contained sub-join over a disjoint ascending pre range. A
// fixed pool of workers pulls task indexes from a shared counter;
// completed task outputs park in a sequence-numbered slot table; Next
// drains slots strictly in task order, so the emitted stream is the
// serial cursor's stream byte for byte. A bounded lookahead window
// (workers may run at most lookahead tasks beyond the emission
// frontier) keeps memory proportional to the worker count rather
// than the document: a slow consumer parks the workers instead of
// buffering the whole answer.
//
// Correctness rests on the same partitioning invariant as
// parallel.go: after pruning, staircase partitions scan pairwise
// disjoint ascending pre ranges, so per-task outputs concatenate —
// already duplicate-free and in document order — into the serial
// answer. Task construction mirrors the Parallel*Join delimiters
// exactly (ScanLimit for descendant chunks, ScanStart for ancestor
// chunks, sliced node lists for the fragment kernels, keep-filtered
// range scans for the single-region axes).
//
// Close is mandatory: workers block on the lookahead window when the
// consumer stalls, so abandoning a cursor without Close would leak
// the pool. Close wakes and joins every worker before returning,
// which also makes the final Stats merge race-free.

import (
	"sync"

	"staircase/internal/axis"
	"staircase/internal/doc"
	"staircase/internal/fault"
)

// morselsPerWorker is the task-count multiplier: more tasks than
// workers smooths skew (a wide staircase step stalls one worker, not
// the pool) at the cost of slightly more slot-table traffic.
const morselsPerWorker = 4

// minMorselSpan is the smallest pre-range span worth a task of its
// own; below it the fan-out overhead outweighs the scan.
const minMorselSpan = 256

// morselTask computes one sub-join. The per-task Stats is folded into
// the cursor's Stats under the cursor lock when the task completes.
type morselTask func(st *Stats) []int32

// MorselCursor is an order-restoring parallel JoinCursor. It is
// created by NewMorselJoinCursor; Next/Close follow the JoinCursor
// contract with one addition: Close must be called exactly once when
// the consumer is done (early or not), or the worker pool leaks.
type MorselCursor struct {
	mu   sync.Mutex
	cond *sync.Cond

	tasks   []morselTask
	results [][]int32
	ready   []bool
	claim   int // next task index a worker may take
	emit    int // next task index Next will drain
	off     int // emitted prefix of results[emit]

	lookahead int
	quit      bool
	err       error // sticky: first task panic, returned by Next
	wg        sync.WaitGroup

	stats *Stats
	// acc parks per-task counters until the consumer folds them into
	// stats. Workers must never write stats directly: the consumer
	// goroutine reads it lock-free (the JoinCursor contract), so the
	// fold happens on the consumer side — at exhaustion or Close.
	acc      Stats
	merged   bool
	nworkers int
}

// NewMorselJoinCursor returns a morsel-driven parallel staircase join
// over one of the four partitioning axes. The context must be fully
// materialised (task construction needs the whole pruned staircase
// up front — this is the price of parallelism, and the plan layer
// only chooses morsel execution when it holds the context anyway).
// With useList set the join runs against the pre-sorted node list
// (fragment) instead of the whole document, like JoinNodeList.
//
// The result stream is byte-identical to the serial cursor / batch
// kernels. opts follows Join: ScanStart/ScanLimit are owned by the
// task builder and must be zero.
func NewMorselJoinCursor(d *doc.Document, a axis.Axis, context, list []int32, useList bool, workers int, opts *Options) (*MorselCursor, error) {
	o := opts.orDefault()
	st := o.Stats
	st.addContext(int64(len(context)))
	if workers < 1 {
		workers = 1
	}
	var tasks []morselTask
	switch a {
	case axis.Descendant:
		tasks = morselDescTasks(d, context, list, useList, workers, o)
	case axis.Ancestor:
		tasks = morselAncTasks(d, context, list, useList, workers, o)
	case axis.Following:
		tasks = morselFolTasks(d, context, list, useList, workers, o)
	case axis.Preceding:
		tasks = morselPrecTasks(d, context, list, useList, workers, o)
	default:
		return nil, errNonPartitioning(a)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if st != nil && workers > 0 {
		st.Workers = int64(workers)
	}
	m := &MorselCursor{
		tasks:     tasks,
		results:   make([][]int32, len(tasks)),
		ready:     make([]bool, len(tasks)),
		lookahead: 2 * workers,
		stats:     st,
		nworkers:  workers,
	}
	m.cond = sync.NewCond(&m.mu)
	m.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go m.worker()
	}
	return m, nil
}

// Tasks returns the number of morsels the join was cut into (0 when
// the context reduced to nothing). For EXPLAIN.
func (m *MorselCursor) Tasks() int { return len(m.tasks) }

// Workers returns the worker-pool size after clamping to the task
// count. For EXPLAIN.
func (m *MorselCursor) Workers() int { return m.nworkers }

// worker claims task indexes within the lookahead window, runs them,
// and publishes results into the slot table.
func (m *MorselCursor) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for !m.quit && m.claim < len(m.tasks) && m.claim >= m.emit+m.lookahead {
			m.cond.Wait()
		}
		if m.quit || m.claim >= len(m.tasks) {
			m.mu.Unlock()
			return
		}
		t := m.claim
		m.claim++
		m.mu.Unlock()

		out, ts, err := m.runTask(t)

		m.mu.Lock()
		if err != nil {
			// A panicking task poisons the cursor: record the first
			// error, stop the pool, and wake the consumer so Next can
			// surface it instead of blocking on a slot that will never
			// fill.
			if m.err == nil {
				m.err = err
			}
			m.quit = true
			m.cond.Broadcast()
			m.mu.Unlock()
			return
		}
		m.results[t] = out
		m.ready[t] = true
		mergeWorkerStats(&m.acc, []Stats{ts})
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// runTask executes one morsel with panic containment: a panic in a
// join kernel becomes an error on this cursor rather than a crashed
// process (the worker runs on a raw goroutine, so an uncaught panic
// here would be fatal to the whole server).
func (m *MorselCursor) runTask(t int) (out []int32, ts Stats, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fault.NewPanicError(v)
		}
	}()
	out = m.tasks[t](&ts)
	return out, ts, nil
}

// Next implements JoinCursor: it fills dst (which must have spare
// capacity) with the next run of result nodes in document order,
// blocking until the task at the emission frontier completes. A nil
// return means exhaustion. seekPre skips result nodes below the seek
// target by binary search inside each completed task output.
func (m *MorselCursor) Next(dst []int32, seekPre int32) ([]int32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.err != nil {
			return nil, m.err
		}
		if m.quit || m.emit >= len(m.tasks) {
			if m.emit >= len(m.tasks) {
				// All tasks published, so every worker write to acc has
				// happened-before this point; fold on the consumer side.
				m.foldStats()
			}
			if len(dst) > 0 {
				return dst, nil
			}
			return nil, nil
		}
		for !m.ready[m.emit] && !m.quit {
			m.cond.Wait()
		}
		if m.err != nil {
			return nil, m.err
		}
		if m.quit {
			if len(dst) > 0 {
				return dst, nil
			}
			return nil, nil
		}
		r := m.results[m.emit]
		if seekPre > 0 && m.off < len(r) && r[m.off] < seekPre {
			m.off += searchList(r[m.off:], seekPre)
		}
		n := copy(dst[len(dst):cap(dst)], r[m.off:])
		dst = dst[:len(dst)+n]
		m.off += n
		if m.off >= len(r) {
			m.results[m.emit] = nil // drop the slot; the window may advance
			m.emit++
			m.off = 0
			m.cond.Broadcast()
			if len(dst) < cap(dst) {
				continue
			}
		}
		return dst, nil
	}
}

// Close wakes and joins the worker pool. It must be called once the
// consumer is done with the cursor — including early termination —
// and is idempotent. After Close, Next reports exhaustion.
func (m *MorselCursor) Close() {
	m.mu.Lock()
	if m.quit {
		m.mu.Unlock()
		return
	}
	m.quit = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
	m.mu.Lock()
	m.foldStats()
	m.mu.Unlock()
}

// foldStats folds the parked worker counters into the shared Stats
// exactly once. Callers must hold m.mu and run on the consumer
// goroutine: the shared Stats is read lock-free by the pipeline, so
// only the consumer may write it.
func (m *MorselCursor) foldStats() {
	if m.merged || m.stats == nil {
		return
	}
	m.merged = true
	mergeWorkerStats(m.stats, []Stats{m.acc})
}

// --- task builders ---------------------------------------------------------

// morselTaskCount sizes the task list for a pre-range of the given
// span: enough tasks to keep the pool busy, but never more than one
// per minMorselSpan nodes.
func morselTaskCount(span int64, workers int) int {
	n := workers * morselsPerWorker
	if max := span / minMorselSpan; int64(n) > max {
		n = int(max)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// morselChunkOpts copies the driver options for a chunk task, exactly
// like the Parallel*Join workers: the chunk context is already
// pruned, and scan delimiters are owned by the task builder.
func morselChunkOpts(o *Options, st *Stats) Options {
	wo := *o
	wo.AssumePruned = true
	wo.OrSelf = false
	wo.ScanStart = 0
	wo.ScanLimit = 0
	wo.Stats = st
	return wo
}

// morselRangeTasks cuts the half-open index range [lo, hi) into
// near-equal contiguous tasks; each task appends the indexes passing
// keep, mapped through emit (identity for document pre ranges, list
// lookup for fragment scans).
func morselRangeTasks(lo, hi int64, workers int, scan func(from, to int64, st *Stats) []int32) []morselTask {
	if hi <= lo {
		return nil
	}
	n := morselTaskCount(hi-lo, workers)
	span := hi - lo
	tasks := make([]morselTask, 0, n)
	for w := 0; w < n; w++ {
		from := lo + span*int64(w)/int64(n)
		to := lo + span*int64(w+1)/int64(n)
		if to <= from {
			continue
		}
		tasks = append(tasks, func(st *Stats) []int32 {
			return scan(from, to, st)
		})
	}
	return tasks
}

// morselDescTasks builds descendant-axis tasks. Multi-step staircases
// reuse PartitionStaircase with the ParallelDescendantJoin ScanLimit
// delimiters; a single-step staircase (one owner — e.g. //tag from
// the root) would yield one chunk and serialise, so it is cut into
// range scans over the owner's subtree instead: every node in
// (c, c+size(c)] is a descendant, no post comparison needed.
func morselDescTasks(d *doc.Document, context, list []int32, useList bool, workers int, o *Options) []morselTask {
	pruned := context
	if !o.AssumePruned {
		pruned = PruneDescendant(d, context)
	}
	if len(pruned) == 0 {
		return nil
	}
	e := o.Emit.cols(d)
	if len(pruned) == 1 {
		c := pruned[0]
		o.Stats.addPruned(1)
		sub := int64(c) + 1 + int64(d.SubtreeSize(c))
		if useList {
			lb := int64(searchList(list, c+1))
			ub := int64(searchList(list, int32(sub)))
			return morselRangeTasks(lb, ub, workers, func(from, to int64, st *Stats) []int32 {
				return morselFilterList(list, e, from, to, st, nil)
			})
		}
		return morselRangeTasks(int64(c)+1, sub, workers, func(from, to int64, st *Stats) []int32 {
			return morselFilterRange(e, from, to, st, nil)
		})
	}
	chunks := PartitionStaircase(pruned, workers*morselsPerWorker, pruned[0], int32(d.Size()))
	tasks := make([]morselTask, 0, len(chunks))
	for _, ch := range chunks {
		tasks = append(tasks, func(st *Stats) []int32 {
			wo := morselChunkOpts(o, st)
			if ch.Hi < len(pruned) {
				limit := pruned[ch.Hi] - 1
				if limit <= 0 {
					// Nothing lies between this chunk's owners and the
					// boundary (ScanLimit 0 would mean "unbounded").
					st.PrunedSize += int64(ch.Hi - ch.Lo)
					return nil
				}
				wo.ScanLimit = limit
			}
			if useList {
				lb := searchList(list, pruned[ch.Lo]+1)
				ub := len(list)
				if ch.Hi < len(pruned) {
					ub = searchList(list, pruned[ch.Hi])
				}
				return DescendantJoinNodeList(d, list[lb:ub], pruned[ch.Lo:ch.Hi], &wo)
			}
			return DescendantJoin(d, pruned[ch.Lo:ch.Hi], &wo)
		})
	}
	return tasks
}

// morselAncTasks builds ancestor-axis tasks: PartitionStaircase with
// the ParallelAncestorJoin ScanStart delimiters, or — for a single
// owner — keep-filtered range scans of [0, c) against its post rank.
func morselAncTasks(d *doc.Document, context, list []int32, useList bool, workers int, o *Options) []morselTask {
	pruned := context
	if !o.AssumePruned {
		pruned = PruneAncestor(d, context)
	}
	if len(pruned) == 0 {
		return nil
	}
	post := d.PostSlice()
	e := o.Emit.cols(d)
	if len(pruned) == 1 {
		c := pruned[0]
		o.Stats.addPruned(1)
		bound := post[c]
		keep := func(v int32) bool { return post[v] > bound }
		if useList {
			ub := int64(searchList(list, c))
			return morselRangeTasks(0, ub, workers, func(from, to int64, st *Stats) []int32 {
				return morselFilterList(list, e, from, to, st, keep)
			})
		}
		return morselRangeTasks(0, int64(c), workers, func(from, to int64, st *Stats) []int32 {
			return morselFilterRange(e, from, to, st, keep)
		})
	}
	chunks := PartitionStaircase(pruned, workers*morselsPerWorker, 0, pruned[len(pruned)-1])
	tasks := make([]morselTask, 0, len(chunks))
	for _, ch := range chunks {
		tasks = append(tasks, func(st *Stats) []int32 {
			wo := morselChunkOpts(o, st)
			if ch.Lo > 0 {
				wo.ScanStart = pruned[ch.Lo-1] + 1
			}
			if useList {
				lb := 0
				if ch.Lo > 0 {
					lb = searchList(list, pruned[ch.Lo-1]+1)
				}
				ub := searchList(list, pruned[ch.Hi-1])
				return AncestorJoinNodeList(d, list[lb:ub], pruned[ch.Lo:ch.Hi], &wo)
			}
			return AncestorJoin(d, pruned[ch.Lo:ch.Hi], &wo)
		})
	}
	return tasks
}

// morselFolTasks builds following-axis tasks: after pruning the axis
// is one region — everything beyond the subtree of the minimum-post
// context node — sliced into keep-filtered range scans.
func morselFolTasks(d *doc.Document, context, list []int32, useList bool, workers int, o *Options) []morselTask {
	c, ok := ReduceFollowing(d, context)
	if !ok {
		return nil
	}
	o.Stats.addPruned(1)
	e := o.Emit.cols(d)
	start := c + 1 + d.SubtreeSize(c)
	if useList {
		from := int64(searchList(list, start))
		return morselRangeTasks(from, int64(len(list)), workers, func(from, to int64, st *Stats) []int32 {
			return morselFilterList(list, e, from, to, st, nil)
		})
	}
	return morselRangeTasks(int64(start), int64(d.Size()), workers, func(from, to int64, st *Stats) []int32 {
		return morselFilterRange(e, from, to, st, nil)
	})
}

// morselPrecTasks builds preceding-axis tasks: one region — the nodes
// before the maximum-pre context node minus its ancestors — sliced
// into keep-filtered range scans against its post rank.
func morselPrecTasks(d *doc.Document, context, list []int32, useList bool, workers int, o *Options) []morselTask {
	c, ok := ReducePreceding(d, context)
	if !ok {
		return nil
	}
	o.Stats.addPruned(1)
	post := d.PostSlice()
	e := o.Emit.cols(d)
	bound := post[c]
	keep := func(v int32) bool { return post[v] < bound }
	if useList {
		ub := int64(searchList(list, c))
		return morselRangeTasks(0, ub, workers, func(from, to int64, st *Stats) []int32 {
			return morselFilterList(list, e, from, to, st, keep)
		})
	}
	return morselRangeTasks(0, int64(c), workers, func(from, to int64, st *Stats) []int32 {
		return morselFilterRange(e, from, to, st, keep)
	})
}

// morselFilterRange scans document pre ranks [from, to), applying the
// attribute filter and an optional extra predicate.
func morselFilterRange(e emitCols, from, to int64, st *Stats, keep func(int32) bool) []int32 {
	out := make([]int32, 0, to-from)
	for v := int32(from); v < int32(to); v++ {
		if keep != nil && !keep(v) {
			continue
		}
		if e.pass(v) {
			out = append(out, v)
		}
	}
	st.Scanned += to - from
	if keep != nil {
		st.Compared += to - from
	} else {
		st.Copied += to - from
	}
	st.Result += int64(len(out))
	return out
}

// morselFilterList is morselFilterRange over node-list indexes.
func morselFilterList(list []int32, e emitCols, from, to int64, st *Stats, keep func(int32) bool) []int32 {
	out := make([]int32, 0, to-from)
	for _, v := range list[from:to] {
		if keep != nil && !keep(v) {
			continue
		}
		if e.pass(v) {
			out = append(out, v)
		}
	}
	st.Scanned += to - from
	if keep != nil {
		st.Compared += to - from
	} else {
		st.Copied += to - from
	}
	st.Result += int64(len(out))
	return out
}
