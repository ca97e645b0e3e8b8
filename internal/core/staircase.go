// Package core implements the staircase join of Grust, van Keulen and
// Teubner (VLDB 2003) — the paper's primary contribution.
//
// The staircase join evaluates an XPath axis step for an entire context
// node sequence against a pre/post encoded document in a single
// sequential scan. It encapsulates three pieces of tree knowledge:
//
//  1. Pruning (§3.1): context nodes whose axis regions are covered by
//     other context nodes are removed; for descendant/ancestor the
//     survivors form a proper staircase in the pre/post plane, for
//     following/preceding the context degenerates to a single node. The
//     ancestor kernels prune as they read: the climb from a context node
//     stops on the previous one exactly when that one is covered, and
//     the list scan merges a covered node's partition into the next.
//  2. Partitioned scan (§3.2, Algorithm 2): the staircase splits the
//     plane into partitions, one per context node; scanning each
//     partition once yields the result duplicate-free and in document
//     order — no unique, no sort. An ancestor partition holds one chain
//     of its context node's ancestors, so the document ancestor kernel
//     climbs the parent column instead of scanning: it reads the result
//     and nothing else.
//  3. Skipping (§3.3, Algorithm 3) and estimation-based skipping (§4.2,
//     Algorithm 4): empty-region analysis (Figure 7) ends partition
//     scans early, and Equation (1) turns the bulk of each descendant
//     partition into a comparison-free copy phase, bounding post-rank
//     comparisons by h·|context|.
//
// All functions operate on preorder ranks (int32) against a
// doc.Document; contexts are sequences of pre ranks in document order
// (strictly increasing), as XPath intermediate results always are.
package core

import (
	"fmt"
	"sync"

	"staircase/internal/axis"
	"staircase/internal/doc"
)

// Variant selects the scan strategy inside each staircase partition of
// the descendant kernels and the node-list ancestor kernel. The
// document ancestor climb reads only the result under every variant;
// following and preceding scan one region either way.
type Variant uint8

const (
	// NoSkip is the basic Algorithm 2: every node of every partition is
	// compared against the staircase boundary.
	NoSkip Variant = iota
	// Skip is Algorithm 3: the partition scan terminates at the first
	// node outside the boundary (descendant), or jumps over skipped
	// subtrees (node-list ancestor), touching at most |result|+|context|
	// nodes.
	Skip
	// SkipEstimate is Algorithm 4: Skip plus the Equation (1) estimate
	// that splits descendant partitions into a comparison-free copy
	// phase and a ≤ h-node scan phase. For axes other than descendant
	// it behaves like Skip.
	SkipEstimate
)

// String returns a short name for the variant.
func (v Variant) String() string {
	switch v {
	case NoSkip:
		return "noskip"
	case Skip:
		return "skip"
	case SkipEstimate:
		return "skip-estimate"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// Stats records the work a staircase join performed. The counters drive
// the paper's Experiment 2 (Figure 11 (c): nodes accessed per variant).
type Stats struct {
	// ContextSize is the context length before pruning.
	ContextSize int64
	// PrunedSize is the context length after pruning (the number of
	// staircase partitions).
	PrunedSize int64
	// Scanned counts document nodes touched by the scan: Copied+Compared.
	Scanned int64
	// Copied counts nodes visited without a post-rank comparison
	// (estimation-based copy phase only).
	Copied int64
	// Compared counts nodes whose post rank was compared against the
	// staircase boundary; the document ancestor climb counts the chain
	// nodes it reads, which are the result.
	Compared int64
	// Skipped counts document nodes jumped over without being touched.
	Skipped int64
	// Result is the number of nodes emitted, counted after Options.Emit:
	// under a name or kind test it is smaller than the number of nodes
	// the scan found inside the axis region. The scan counters above do
	// not depend on the test.
	Result int64
}

// addScan folds one kernel call's counters into s (nil-safe): the
// staircase size, the nodes visited without and with a post comparison,
// the nodes jumped, and the nodes emitted.
func (s *Stats) addScan(pruned int, copied, compared, skipped int64, result int) {
	if s != nil {
		s.PrunedSize += int64(pruned)
		s.Copied += copied
		s.Compared += compared
		s.Scanned += copied + compared
		s.Skipped += skipped
		s.Result += int64(result)
	}
}

// AddCopy charges n entries copied out of a list span the counters
// took as skipped (nil-safe): they move from skipped to copied.
func (s *Stats) AddCopy(n int) {
	if s != nil {
		s.Copied += int64(n)
		s.Scanned += int64(n)
		s.Skipped = max(s.Skipped-int64(n), 0)
	}
}

// KindMask is a set of node kinds: bit k stands for doc.Kind k.
type KindMask uint8

const (
	// NonAttr holds every kind but attribute — what node() selects on
	// every axis but `attribute`, and what the zero Emit stands for.
	NonAttr KindMask = 1<<doc.Elem | 1<<doc.Text | 1<<doc.Comment | 1<<doc.PI | 1<<doc.VRoot
	// AllKinds delivers attribute nodes like any other node.
	AllKinds KindMask = NonAttr | 1<<doc.Attr
	// NoKinds is a non-zero mask no kind is a member of (a test nothing
	// passes: an absent tag name, text() on the attribute axis).
	NoKinds KindMask = 1 << 7
)

// Emit is the one test a join applies to a node its scan found inside the
// axis region: the node's kind must be in Kinds and, under ByName, its
// name id must equal Name. It carries both the paper's attribute filter
// (§3: attributes are filtered on every axis but `attribute`) and the
// step's node test, so neither needs a second pass over the result. The
// zero value selects NonAttr.
type Emit struct {
	Kinds  KindMask
	ByName bool
	Name   int32
}

// Pass decides the test for one node, given its kind and name id.
func (e Emit) Pass(k doc.Kind, name int32) bool {
	if e.Kinds == 0 {
		e.Kinds = NonAttr
	}
	return e.Kinds>>k&1 != 0 && (!e.ByName || name == e.Name)
}

// emitCols is an Emit bound to a document's kind and name columns; name
// is nil unless the test is by name.
type emitCols struct {
	mask KindMask
	id   int32
	kind []doc.Kind
	name []int32
}

func (e Emit) cols(d *doc.Document) emitCols {
	c := emitCols{mask: e.Kinds, id: e.Name, kind: d.KindSlice()}
	if c.mask == 0 {
		c.mask = NonAttr
	}
	if e.ByName {
		c.name = d.NameSlice()
	}
	return c
}

func (c *emitCols) pass(v int32) bool {
	return c.mask>>c.kind[v]&1 != 0 && (c.name == nil || c.name[v] == c.id)
}

// Options configures a staircase join invocation. A nil *Options requests
// the paper configuration (SkipEstimate, see DefaultOptions); the zero
// value does not, because the zero Variant is NoSkip.
type Options struct {
	// Variant selects NoSkip, Skip or SkipEstimate.
	Variant Variant
	// Emit is the node test fused into the scan; the zero value filters
	// attributes and nothing else. The node-list kernels (JoinNodeList,
	// SubtreeNodeList and the list cursors) ignore it: a list already is
	// its test's fragment.
	Emit Emit
	// OrSelf makes the document descendant and ancestor kernels (Join,
	// NewJoinCursor) evaluate the or-self axis: every context node
	// passing Emit joins the result. A context node descendant pruning
	// drops lies inside another one's region, so emitting the staircase
	// nodes before their partitions covers them all; the ancestor climb
	// emits each context node after its chain, before it knows whether
	// the node is covered. The other kernels ignore the field.
	OrSelf bool
	// Stats, when non-nil, accumulates work counters.
	Stats *Stats
}

// DefaultOptions returns the paper's full configuration:
// estimation-based skipping with attribute filtering.
func DefaultOptions() *Options {
	return &Options{Variant: SkipEstimate}
}

func (o *Options) orDefault() *Options {
	if o == nil {
		return DefaultOptions()
	}
	return o
}

// Join evaluates an axis step along one of the four partitioning axes
// (descendant, ancestor, following, preceding) for the given context
// using the staircase join. The context must be in document order
// (strictly increasing pre ranks). The result is duplicate-free and in
// document order.
//
// Join runs the axis's cursor kernel (cursor.go) once, at an unbounded
// window, with the context in hand — the pruned staircase, the raw
// context the ancestor climb prunes as it goes, or the one node that
// decides a following or preceding result — into a pooled scratch that
// wholeBound sizes, and returns an exact copy of what the kernel wrote:
// len(result) == cap(result), and the result shares no memory with the
// scratch.
func Join(d *doc.Document, a axis.Axis, context []int32, opts *Options) ([]int32, error) {
	o := opts.orDefault()
	switch a {
	case axis.Descendant, axis.Ancestor, axis.Following, axis.Preceding:
	default:
		return nil, errNonPartitioning(a)
	}
	if len(context) == 0 {
		return nil, nil
	}
	var res []int32
	buf := scratchPool.Get().(*[]int32)
	switch a {
	case axis.Descendant:
		stair := PruneDescendant(d, context)
		c := descCursor{kernel: o.holding(d, nil, stair, len(context))}
		res, _ = c.next(grow(buf, wholeBound(d, a, stair, o.OrSelf)), unbounded, 0)
	case axis.Ancestor:
		c := ancCursor{kernel: o.holding(d, context, nil, len(context))}
		res, _ = c.next(grow(buf, wholeBound(d, a, context, o.OrSelf)), unbounded, 0)
	case axis.Following:
		i := minPostAt(d, context)
		c := folCursor{kernel: o.holding(d, context[i:i+1], nil, len(context))}
		res, _ = c.next(grow(buf, wholeBound(d, a, context[i:i+1], false)), unbounded, 0)
	case axis.Preceding:
		last := context[len(context)-1:]
		c := precCursor{kernel: o.holding(d, last, nil, len(context))}
		res, _ = c.next(grow(buf, wholeBound(d, a, last, false)), unbounded, 0)
	}
	return exact(buf, res), nil
}

// wholeBound is the size of the scratch Join runs a kernel into, given
// the context in hand: partition (c, next) holds at most |descendant(c)|
// = post(c)−pre(c)+level(c) descendants (Equation (1)) and no more than
// its width; the ancestors of the raw context are at most h per node
// and all precede its last node c, so no more than c — a bound that
// takes no pass; the one node f that decides a following result leaves
// the nodes beyond its subtree, the last context node c of a preceding
// one the c nodes before it. Under orSelf the context nodes in hand add
// one each, and an ancestor-or-self result holds no more than c+1.
func wholeBound(d *doc.Document, a axis.Axis, hand []int32, orSelf bool) int {
	n := int32(d.Size())
	size := 0
	switch a {
	case axis.Descendant:
		for i, c := range hand {
			end := n
			if i+1 < len(hand) {
				end = hand[i+1]
			}
			size += int(min(d.SubtreeSize(c), end-1-c))
		}
	case axis.Ancestor:
		last := int(hand[len(hand)-1])
		size = min(len(hand)*int(d.Height()), last)
		if orSelf {
			return min(size+len(hand), last+1)
		}
		return size
	case axis.Following:
		f := hand[0]
		return int(n - min(f+1+d.SubtreeSize(f), n))
	case axis.Preceding:
		return int(hand[0])
	}
	if orSelf {
		size += len(hand)
	}
	return size
}

// scratchPool holds the buffers whole joins run their kernels into. An
// entry only grows (grow), so each one settles at the largest bound its
// callers have asked for; the pool drops idle entries at garbage
// collection.
var scratchPool = sync.Pool{New: func() any { return new([]int32) }}

// grow makes the scratch hold at least n entries and returns it, empty.
func grow(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, 0, n)
	}
	return (*buf)[:0]
}

// exact returns a copy of res, a prefix of the scratch buf, at its exact
// length — make then copy, which the compiler turns into one allocation
// that is not zeroed first — and returns buf to the pool.
func exact(buf *[]int32, res []int32) []int32 {
	out := make([]int32, len(res))
	copy(out, res)
	scratchPool.Put(buf)
	return out
}

// --- pruning (§3.1, Algorithm 1) ------------------------------------------

// PruneDescendant removes context nodes covered by other context nodes
// for the descendant axis: a node is dropped iff it is a descendant of
// an earlier context node. The surviving sequence has strictly
// increasing pre AND post ranks — a proper staircase. The input must be
// in document order; duplicates are dropped as a side effect. A context
// that already is a proper staircase (a step's output fed to the next
// step usually is) is returned as is, not copied: callers must treat the
// result as read-only.
func PruneDescendant(d *doc.Document, context []int32) []int32 {
	post := d.PostSlice()
	prev := int32(-1)
	for i, c := range context {
		if post[c] <= prev {
			out := make([]int32, len(context)-1)
			k := copy(out, context[:i])
			for _, c := range context[i+1:] {
				if post[c] > prev {
					out[k] = c
					k++
					prev = post[c]
				}
			}
			return out[:k]
		}
		prev = post[c]
	}
	return context
}

// PruneAncestor removes context nodes covered for the ancestor axis: a
// node is dropped iff it is an ancestor of a later context node (its
// ancestor-or-self path is a prefix of the other's, Figure 4). The
// surviving staircase again has strictly increasing pre and post ranks.
// Like PruneDescendant it returns a proper staircase uncopied. No kernel
// calls it: both ancestor kernels read the raw context and prune as they
// open partitions. It is the definition their PrunedSize is checked
// against, and the pre-pass of the bench's baseline ancestor join.
func PruneAncestor(d *doc.Document, context []int32) []int32 {
	post := d.PostSlice()
	for i := range context {
		if ancCovered(post, context, i) {
			out := make([]int32, len(context)-1)
			k := copy(out, context[:i])
			for j := i + 1; j < len(context); j++ {
				if !ancCovered(post, context, j) {
					out[k] = context[j]
					k++
				}
			}
			return out[:k]
		}
	}
	return context
}

// ancCovered reports whether context[i] is an ancestor (or a duplicate)
// of the next context node. Descendants of a node within the context
// directly follow it (document order), so checking the immediate
// successor suffices.
func ancCovered(post, context []int32, i int) bool {
	if i+1 == len(context) {
		return false
	}
	c, next := context[i], context[i+1]
	return post[next] < post[c] || next == c
}

// ReduceFollowing returns the single context node that determines the
// whole following-axis result: the node with minimum postorder rank
// (§3.1: "all context nodes can be pruned except ... the minimum
// postorder rank in case of following"). In document order that node lies
// inside the first context node's subtree — everything beyond it follows
// the first node, with a larger post rank — so the search ends there. ok
// is false for empty contexts.
func ReduceFollowing(d *doc.Document, context []int32) (int32, bool) {
	if len(context) == 0 {
		return 0, false
	}
	return context[minPostAt(d, context)], true
}

// minPostAt returns ReduceFollowing's node as an index into a non-empty
// context.
func minPostAt(d *doc.Document, context []int32) int {
	post := d.PostSlice()
	best, hi := 0, context[0]+d.SubtreeSize(context[0])
	for i, c := range context {
		if c > hi {
			break
		}
		if post[c] < post[context[best]] {
			best = i
		}
	}
	return best
}

// emitRange writes the nodes of the pre range [from, to] that pass the
// emit test to out[k:] — no post comparison — and returns the new k.
// out must have room for the whole range. A kind test alone is a store
// and an add per node, no branch.
func (e *emitCols) emitRange(out []int32, k int, from, to int32) int {
	mask, kind := e.mask, e.kind[from:to+1]
	out = out[k:][:len(kind)] // one length for every index below
	n := 0
	if e.name == nil {
		for j, kd := range kind {
			out[n] = from + int32(j)
			n += int(mask >> kd & 1)
		}
		return k + n
	}
	id := e.id
	for j, nm := range e.name[from : to+1] {
		if nm == id && mask>>kind[j]&1 != 0 {
			out[n] = from + int32(j)
			n++
		}
	}
	return k + n
}

// emitBelow writes the nodes of the pre range [from, to) whose post rank
// is below bound and that pass the emit test to out — the preceding scan
// — and returns how many it wrote. out must have room for the range.
func (e *emitCols) emitBelow(out, post []int32, bound, from, to int32) int {
	mask, kind, post := e.mask, e.kind[from:to], post[from:to]
	out, k := out[:len(post)], 0 // one length for every index below
	if e.name == nil {
		// Nearly every node passes the comparison; which kinds pass the
		// mask is not predictable, so that half is a store and an add.
		for i, p := range post {
			if p < bound {
				out[k] = from + int32(i)
				k += int(mask >> kind[i] & 1)
			}
		}
		return k
	}
	id := e.id
	for i, nm := range e.name[from:to] {
		if nm == id && post[i] < bound && mask>>kind[i]&1 != 0 {
			out[k] = from + int32(i)
			k++
		}
	}
	return k
}

// MergeOrSelf merges two strictly increasing sequences into their
// strictly increasing union: the '|' merge, and the self side of an
// or-self step where the kernel could not emit it (pushdown, baselines).
// When one side is empty the other is returned as is, not copied.
func MergeOrSelf(result, context []int32) []int32 {
	if len(context) == 0 {
		return result
	}
	if len(result) == 0 {
		return context
	}
	out := make([]int32, len(result)+len(context))
	i, j, k := 0, 0, 0
	for i < len(result) && j < len(context) {
		r, c := result[i], context[j]
		if r <= c {
			i++
		}
		if c <= r {
			j++
		}
		out[k] = min(r, c)
		k++
	}
	k += copy(out[k:], result[i:])
	k += copy(out[k:], context[j:])
	return out[:k]
}
