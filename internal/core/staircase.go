// Package core implements the staircase join of Grust, van Keulen and
// Teubner (VLDB 2003) — the paper's primary contribution.
//
// The staircase join evaluates an XPath axis step for an entire context
// node sequence against a pre/post encoded document in a single
// sequential scan. It encapsulates three pieces of tree knowledge:
//
//  1. Pruning (§3.1): context nodes whose axis regions are covered by
//     other context nodes are removed up front; for descendant/ancestor
//     the survivors form a proper staircase in the pre/post plane, for
//     following/preceding the context degenerates to a single node.
//  2. Partitioned scan (§3.2, Algorithm 2): the staircase splits the
//     plane into partitions, one per context node; scanning each
//     partition once yields the result duplicate-free and in document
//     order — no unique, no sort.
//  3. Skipping (§3.3, Algorithm 3) and estimation-based skipping (§4.2,
//     Algorithm 4): empty-region analysis (Figure 7) ends partition
//     scans early, and Equation (1) turns the bulk of each descendant
//     partition into a comparison-free copy phase, bounding post-rank
//     comparisons by h·|context|.
//  4. Partition-parallel execution (§3.2/§6, parallel.go): the pruned
//     staircase's partitions scan pairwise disjoint pre ranges, so the
//     staircase can be cut into contiguous chunks and joined on
//     independent workers whose results concatenate — already in
//     document order — without a merge. See PartitionStaircase and the
//     Parallel*Join variants.
//
// All functions operate on preorder ranks (int32) against a
// doc.Document; contexts are sequences of pre ranks in document order
// (strictly increasing), as XPath intermediate results always are.
package core

import (
	"fmt"

	"staircase/internal/axis"
	"staircase/internal/doc"
)

// Variant selects the scan strategy inside each staircase partition.
type Variant uint8

const (
	// NoSkip is the basic Algorithm 2: every node of every partition is
	// compared against the staircase boundary.
	NoSkip Variant = iota
	// Skip is Algorithm 3: the partition scan terminates at the first
	// node outside the boundary (descendant), or jumps over skipped
	// subtrees (ancestor), touching at most |result|+|context| nodes.
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
	// staircase boundary.
	Compared int64
	// Skipped counts document nodes jumped over without being touched.
	Skipped int64
	// Result is the number of nodes emitted, counted after Options.Emit:
	// under a name or kind test it is smaller than the number of nodes
	// the scan found inside the axis region. The scan counters above do
	// not depend on the test.
	Result int64
	// Workers is the number of parallel chunks a Parallel*Join actually
	// ran (after clamping to the staircase size and scan range); 0 for
	// serial execution.
	Workers int64
}

// addResult is a nil-safe counter bump helper used by the join loops.
func (s *Stats) addResult(n int64) {
	if s != nil {
		s.Result += n
	}
}

// addScan folds one batch join's counters into s (nil-safe): the
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
// is nil unless the test is by name. Batch kernels copy the fields into
// locals before their scan loop, cursors embed the struct.
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

// Options configures a staircase join invocation. The zero value (and a
// nil *Options) requests the full paper configuration: estimation-based
// skipping, attribute filtering, pruning as a pre-pass.
type Options struct {
	// Variant selects NoSkip, Skip or SkipEstimate (default SkipEstimate
	// ... note: the zero value of Variant is NoSkip, so Options
	// explicitly distinguishes "unset"; use DefaultOptions for the
	// paper configuration).
	Variant Variant
	// Emit is the node test fused into the scan; the zero value filters
	// attributes and nothing else.
	Emit Emit
	// OrSelf makes the document batch kernels (Join, ParallelJoin) of
	// the descendant and ancestor axes evaluate the or-self axis: every
	// context node passing Emit joins the result. A context node pruning
	// drops lies inside another one's region, so emitting the staircase
	// nodes — before their partition on descendant, after it on ancestor —
	// covers them all. The other kernel families ignore the field.
	OrSelf bool
	// AssumePruned skips pruning entirely; the caller asserts the
	// context is already a proper staircase. Violating the assertion
	// yields wrong results (the paper: the basic algorithm "only works
	// correctly on proper staircases").
	AssumePruned bool
	// ScanLimit, when positive, bounds the last descendant partition to
	// pre ranks <= ScanLimit instead of the document end. It is the
	// building block of the partition-parallel execution strategy the
	// paper sketches in §3.2/§6: each worker joins a contiguous slice
	// of the staircase, delimited by the next worker's first context
	// node.
	ScanLimit int32
	// ScanStart, when positive, starts the first ancestor partition at
	// this pre rank instead of 0 (the parallel counterpart for the
	// ancestor axis).
	ScanStart int32
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
func Join(d *doc.Document, a axis.Axis, context []int32, opts *Options) ([]int32, error) {
	switch a {
	case axis.Descendant:
		return DescendantJoin(d, context, opts), nil
	case axis.Ancestor:
		return AncestorJoin(d, context, opts), nil
	case axis.Following:
		return FollowingJoin(d, context, opts), nil
	case axis.Preceding:
		return PrecedingJoin(d, context, opts), nil
	default:
		return nil, fmt.Errorf("core: staircase join does not handle axis %v", a)
	}
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
// Like PruneDescendant it returns a proper staircase uncopied.
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
	post := d.PostSlice()
	best := context[0]
	hi := best + d.SubtreeSize(best)
	for _, c := range context[1:] {
		if c > hi {
			break
		}
		if post[c] < post[best] {
			best = c
		}
	}
	return best, true
}

// ReducePreceding returns the single context node that determines the
// whole preceding-axis result: the node with maximum preorder rank.
func ReducePreceding(d *doc.Document, context []int32) (int32, bool) {
	if len(context) == 0 {
		return 0, false
	}
	// Context is in document order: the maximum pre rank is the last.
	return context[len(context)-1], true
}

// IsStaircaseDesc reports whether context is a proper descendant-axis
// staircase: strictly increasing pre and post ranks.
func IsStaircaseDesc(d *doc.Document, context []int32) bool {
	post := d.PostSlice()
	for i := 1; i < len(context); i++ {
		if context[i-1] >= context[i] || post[context[i-1]] >= post[context[i]] {
			return false
		}
	}
	return true
}

// --- descendant staircase join (§3.2–§4.2) --------------------------------

// DescendantJoin evaluates context/descendant with the staircase join.
// The result is sized once, before the scan: partition (c, to] holds at
// most |descendant(c)| = post(c)−pre(c)+level(c) result nodes (Equation
// (1)) and at most its own width, so one allocation takes the whole
// result and the scan writes it with indexed stores.
func DescendantJoin(d *doc.Document, context []int32, opts *Options) []int32 {
	o := opts.orDefault()
	st := o.Stats
	st.addContext(int64(len(context)))
	if len(context) == 0 {
		return nil
	}
	if !o.AssumePruned {
		context = PruneDescendant(d, context)
	}
	post, level := d.PostSlice(), d.LevelSlice()
	e := o.Emit.cols(d)
	mask, id, kind, name := e.mask, e.id, e.kind, e.name
	last := int32(d.Size()) - 1 // the last partition ends here
	if o.ScanLimit > 0 && o.ScanLimit < last {
		last = o.ScanLimit
	}
	size := 0
	for i, c := range context {
		size += int(min(post[c]-c+level[c], descPartEnd(context, i, last)-c))
	}
	if o.OrSelf {
		size += len(context)
	}
	out := make([]int32, size)
	k := 0
	var copied, compared, skipped int64
	for i, c := range context {
		if o.OrSelf && e.pass(c) {
			out[k] = c
			k++
		}
		to, bound := descPartEnd(context, i, last), post[c]
		p := c + 1
		if est := min(bound, to); o.Variant == SkipEstimate && est >= p {
			// Copy phase: the first post(c)−pre(c) nodes after c are
			// guaranteed descendants (Equation (1) lower bound).
			k = e.emitRange(out, k, p, est)
			copied += int64(est - p + 1)
			p = est + 1
		}
		// Scan phase: under skipping it ends at the first node outside
		// the boundary — the rest of the partition is an empty region of
		// type Z (Figure 7 (b)); after a copy phase at most h nodes remain.
		from := p
		for ; p <= to; p++ {
			if post[p] >= bound {
				if o.Variant != NoSkip {
					break
				}
			} else if mask>>kind[p]&1 != 0 && (name == nil || name[p] == id) {
				out[k] = p
				k++
			}
		}
		compared += int64(p - from)
		if p <= to {
			compared++ // the breaking node was compared too
			skipped += int64(to - p)
		}
	}
	st.addScan(len(context), copied, compared, skipped, k)
	return out[:k]
}

// descPartEnd returns the last pre rank of the i-th descendant
// partition: the node before the next staircase node, or last.
func descPartEnd(context []int32, i int, last int32) int32 {
	if i+1 < len(context) {
		return context[i+1] - 1
	}
	return max(last, context[i])
}

// emitRange writes the nodes of the pre range [from, to] that pass the
// emit test to out[k:] — no post comparison — and returns the new k.
// out must have room for the whole range. A kind test alone is a store
// and an add per node, no branch.
func (e *emitCols) emitRange(out []int32, k int, from, to int32) int {
	mask, kind := e.mask, e.kind[from:to+1]
	if e.name == nil {
		for j, kd := range kind {
			out[k] = from + int32(j)
			k += int(mask >> kd & 1)
		}
		return k
	}
	id := e.id
	for j, nm := range e.name[from : to+1] {
		if nm == id && mask>>kind[j]&1 != 0 {
			out[k] = from + int32(j)
			k++
		}
	}
	return k
}
