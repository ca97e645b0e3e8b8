// Package doc implements the XPath accelerator document store of
// Grust (SIGMOD 2002), the XML encoding the staircase join operates on.
//
// Every node v of an XML document is mapped to the pair
//
//	v  ->  <pre(v), post(v)>
//
// of its preorder and postorder traversal ranks, placing it on the
// two-dimensional pre/post plane (Figure 2 of the staircase join paper).
// The store additionally records level (root depth), node kind, tag name
// (interned) and parent as plain Go slices indexed positionally by pre:
// the pre column itself is virtual (void), as in the paper's Monet
// implementation (§4.1). Node values follow the
// same section's string heap: one text arena plus a fixed-width offset
// column, so Value returns substrings that share the arena — there is
// no string per node, and callers must not assume one.
//
// Attribute nodes participate in the plane with their own pre/post ranks
// (visited as the first children of their owner element) but carry a
// distinct kind so that axis steps can filter them out, following the
// paper's "note on attributes" in §3.
//
// The encoding satisfies, for all nodes u, v (property-tested):
//
//	v ∈ descendant(u)  ⇔  pre(u) < pre(v) ∧ post(v) < post(u)
//	|descendant(v)| = post(v) − pre(v) + level(v)      (Equation 1, exact)
//	level(v) ≤ Height()                                (h, small constant)
package doc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"staircase/internal/index"
	"staircase/internal/vindex"
)

// Kind classifies a node in the pre/post plane.
type Kind uint8

const (
	// Elem is an XML element node.
	Elem Kind = iota
	// Attr is an attribute node. Attributes live in the plane but are
	// filtered from the result of every axis except `attribute`.
	Attr
	// Text is a text (character data) node.
	Text
	// Comment is an XML comment node.
	Comment
	// PI is a processing-instruction node.
	PI
	// VRoot is the virtual root installed above multi-document
	// collections (footnote 1 of the paper).
	VRoot
)

// String returns the XPath-ish name of the node kind.
func (k Kind) String() string {
	switch k {
	case Elem:
		return "element"
	case Attr:
		return "attribute"
	case Text:
		return "text"
	case Comment:
		return "comment"
	case PI:
		return "processing-instruction"
	case VRoot:
		return "virtual-root"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NoName is the name id carried by unnamed nodes (text, comment, vroot).
const NoName int32 = -1

// NoParent is the parent rank carried by the root node.
const NoParent int32 = -1

// Document is a pre/post encoded XML document (or document collection
// under a virtual root). All per-node columns are indexed by preorder
// rank; the pre column itself is never stored (void column).
//
// A Document is immutable after construction; it is safe for concurrent
// readers.
type Document struct {
	post   []int32 // postorder rank, by pre
	level  []int32 // root distance, by pre
	kind   []Kind  // node kind, by pre
	name   []int32 // interned tag/attribute name id, NoName if unnamed
	parent []int32 // parent's pre, NoParent for the root

	// Text/attr/comment/PI content, in pre order in one arena: node v
	// holds valText[valOff[v]:valOff[v+1]] (elements hold nothing, so a
	// subtree's values are one contiguous span). valOff is nil if
	// values were not retained.
	valOff  []uint32
	valText string

	names  *Dict
	height int32 // h: max level, computed at load time (§2.1 footnote 3)

	// idx is the shared tag/kind node index (internal/index), built at
	// most once per document and immutable afterwards. idxMu only
	// serialises the build; readers go through the atomic pointer.
	idxMu sync.Mutex
	idx   atomic.Pointer[index.Index]

	// vidx is the shared value index (internal/vindex), following the
	// same build-once/read-lock-free discipline. Only value-bearing
	// documents carry one.
	vidxMu sync.Mutex
	vidx   atomic.Pointer[vindex.Index]
}

// NumKinds is the number of node kind values, the kind-list count of
// the tag/kind index and the SCJ2 index section.
const NumKinds = int(VRoot) + 1

// TagIndex returns the document's tag/kind node index: for each
// interned name the pre-sorted list of elements carrying it, and for
// each non-element kind the pre-sorted list of nodes of that kind,
// with exact counts and pre spans. The index is built at most once per
// document (documents loaded from an SCJ2 file arrive with it already
// attached) and shared lock-free by every engine over the document.
func (d *Document) TagIndex() *index.Index {
	if ix := d.idx.Load(); ix != nil {
		return ix
	}
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	if ix := d.idx.Load(); ix != nil {
		return ix
	}
	ix := index.Build(d.kind, d.name, d.names.Len(), NumKinds, Elem)
	d.idx.Store(ix)
	return ix
}

// IndexBuilt reports whether the tag/kind index has been built (or
// loaded) yet, without triggering a build.
func (d *Document) IndexBuilt() bool { return d.idx.Load() != nil }

// IndexBytes returns the in-memory footprint of the tag/kind index, 0
// if it has not been built yet. The catalog charges this against its
// residency budget alongside EncodedBytes.
func (d *Document) IndexBytes() int64 {
	if ix := d.idx.Load(); ix != nil {
		return ix.Bytes()
	}
	return 0
}

// ValueIndex returns the document's value index: every node's XPath
// string value mapped to its pre-sorted node list, with a derived
// numeric partition and an overflow list for values longer than
// vindex.MaxKeyLen (see internal/vindex). Like TagIndex it is built at
// most once per document (documents loaded from an SCJ2 file with a
// value section arrive with it attached) and shared lock-free by every
// engine over the document. Documents built without values return nil
// — callers fall back to per-node evaluation.
func (d *Document) ValueIndex() *vindex.Index {
	if d.valOff == nil {
		return nil
	}
	if ix := d.vidx.Load(); ix != nil {
		return ix
	}
	d.vidxMu.Lock()
	defer d.vidxMu.Unlock()
	if ix := d.vidx.Load(); ix != nil {
		return ix
	}
	ix := d.buildValueIndex()
	d.vidx.Store(ix)
	return ix
}

// buildValueIndex runs the document pass feeding the value index:
// every node, in pre order, keyed by its bounded string value. Values
// that are one span of the arena are interned as substrings; only an
// element whose text is interleaved with other values is concatenated,
// through one reused buffer.
func (d *Document) buildValueIndex() *vindex.Index {
	var (
		b       vindex.Builder
		scratch []byte
	)
	b.Grow(len(d.post))
	for pre := range d.post {
		pre := int32(pre)
		size, span := d.textLen(pre, vindex.MaxKeyLen)
		switch {
		case size > vindex.MaxKeyLen:
			b.AddOverflow(pre)
		case size == len(span):
			b.Add(pre, span)
		default:
			scratch = scratch[:0]
			d.eachText(pre, func(t string) bool {
				scratch = append(scratch, t...)
				return true
			})
			b.AddBytes(pre, scratch)
		}
	}
	return b.Build(len(d.post))
}

// eachText calls f with every piece of the node's XPath string value
// in order — the node's own content for text/attribute/comment/PI
// nodes, each descendant text node's for elements and the virtual
// root — until f returns false.
func (d *Document) eachText(pre int32, f func(string) bool) {
	if k := d.kind[pre]; k != Elem && k != VRoot {
		f(d.Value(pre))
		return
	}
	end := pre + d.SubtreeSize(pre)
	for v := pre + 1; v <= end; v++ {
		if d.kind[v] == Text && !f(d.Value(v)) {
			return
		}
	}
}

// textLen returns the length of the node's string value, counting no
// further than past limit — under vindex.MaxKeyLen a huge container
// element costs O(MaxKeyLen), not a pass over its subtree text — and
// the arena span holding the node's (or its subtree's) values. When
// the two lengths agree the span is the string value.
func (d *Document) textLen(pre int32, limit int) (size int, span string) {
	d.eachText(pre, func(t string) bool {
		size += len(t)
		return size <= limit
	})
	return size, d.valText[d.valOff[pre]:d.valOff[pre+d.SubtreeSize(pre)+1]]
}

// RebuildValueIndex builds a fresh value index from the document's
// values without consulting or updating the shared cached one — the
// benchmarking hook for measuring construction cost (the tag/kind
// analogue times index.Build directly, but the value pass needs the
// private value column). Returns nil when values were dropped.
func (d *Document) RebuildValueIndex() *vindex.Index {
	if d.valOff == nil {
		return nil
	}
	return d.buildValueIndex()
}

// ValueIndexBuilt reports whether the value index has been built (or
// loaded) yet, without triggering a build.
func (d *Document) ValueIndexBuilt() bool { return d.vidx.Load() != nil }

// ValueIndexBytes returns the in-memory footprint of the value index,
// 0 if it has not been built. The catalog charges this against its
// residency budget alongside EncodedBytes and IndexBytes.
func (d *Document) ValueIndexBytes() int64 {
	if ix := d.vidx.Load(); ix != nil {
		return ix.Bytes()
	}
	return 0
}

// Size returns the number of nodes in the document (elements,
// attributes, text, comments, PIs, and the virtual root if present).
func (d *Document) Size() int { return len(d.post) }

// Height returns h, the height of the document tree (maximum level).
// The paper computes h at document loading time and reports h ≈ 10 for
// typical real-world XML.
func (d *Document) Height() int32 { return d.height }

// Names returns the tag/attribute name dictionary.
func (d *Document) Names() *Dict { return d.names }

// HasValues reports whether node string values were retained at build
// time (builders may drop them to save memory in large benchmarks).
func (d *Document) HasValues() bool { return d.valOff != nil }

// ValueBytes returns the in-memory footprint of the node values: the
// offset column plus the text arena, 0 for documents built without
// values. The catalog charges it alongside EncodedBytes.
func (d *Document) ValueBytes() int64 {
	return 4*int64(len(d.valOff)) + int64(len(d.valText))
}

// Post returns post(v) for the node with preorder rank pre.
func (d *Document) Post(pre int32) int32 { return d.post[pre] }

// Level returns level(v), the length of the path from the root.
func (d *Document) Level(pre int32) int32 { return d.level[pre] }

// Kind returns the node kind.
func (d *Document) KindOf(pre int32) Kind { return d.kind[pre] }

// NameID returns the interned name id of the node (NoName if unnamed).
func (d *Document) NameID(pre int32) int32 { return d.name[pre] }

// Name returns the tag or attribute name of the node, "" if unnamed.
func (d *Document) Name(pre int32) string {
	id := d.name[pre]
	if id == NoName {
		return ""
	}
	return d.names.Name(id)
}

// Parent returns the preorder rank of the node's parent, NoParent for
// the root.
func (d *Document) Parent(pre int32) int32 { return d.parent[pre] }

// Value returns the string value of a text/attribute/comment/PI node.
// It returns "" for elements and for documents built without values.
// The result is a substring of the document's one text arena: it costs
// nothing to take, and keeping it alive keeps the arena alive.
func (d *Document) Value(pre int32) string {
	if d.valOff == nil {
		return ""
	}
	return d.valText[d.valOff[pre]:d.valOff[pre+1]]
}

// SubtreeSize returns |descendant(v)| for the node with preorder rank
// pre, using Equation (1) of the paper:
//
//	|descendant(v)| = post(v) − pre(v) + level(v)
//
// which is exact for this encoding (attributes count as descendants).
func (d *Document) SubtreeSize(pre int32) int32 {
	return d.post[pre] - pre + d.level[pre]
}

// Root returns the preorder rank of the document root (always 0).
func (d *Document) Root() int32 { return 0 }

// StringValue returns the XPath string value of a node: the node's own
// content for text/attribute/comment/PI nodes, and the concatenation of
// all descendant text for elements (and the virtual root). Documents
// built without values yield "". Only an element whose text is
// interleaved with attribute, comment or PI content is concatenated;
// every other value is a substring of the arena.
func (d *Document) StringValue(pre int32) string {
	if k := d.kind[pre]; d.valOff == nil || k != Elem && k != VRoot {
		return d.Value(pre)
	}
	size, span := d.textLen(pre, math.MaxInt)
	if size == len(span) {
		return span
	}
	buf := make([]byte, 0, size)
	d.eachText(pre, func(t string) bool {
		buf = append(buf, t...)
		return true
	})
	return string(buf)
}

// IsDescendant reports whether node v is a proper descendant of node u,
// decided purely by plane coordinates (two integer comparisons).
func (d *Document) IsDescendant(u, v int32) bool {
	return u < v && d.post[v] < d.post[u]
}

// IsAncestor reports whether node v is a proper ancestor of node u.
func (d *Document) IsAncestor(u, v int32) bool { return d.IsDescendant(v, u) }

// PostSlice exposes the raw post column for tight operator loops
// (staircase join scans it sequentially). Callers must not modify it.
func (d *Document) PostSlice() []int32 { return d.post }

// LevelSlice exposes the raw level column. Callers must not modify it.
func (d *Document) LevelSlice() []int32 { return d.level }

// KindSlice exposes the raw kind column. Callers must not modify it.
func (d *Document) KindSlice() []Kind { return d.kind }

// NameSlice exposes the raw name-id column. Callers must not modify it.
func (d *Document) NameSlice() []int32 { return d.name }

// ParentSlice exposes the raw parent column. Callers must not modify it.
func (d *Document) ParentSlice() []int32 { return d.parent }

// Children returns the preorder ranks of the children of v (attributes
// excluded), in document order. The scan walks the subtree of v and
// skips nested subtrees in O(#children + #attributes) using Equation (1)
// jumps.
func (d *Document) Children(v int32) []int32 {
	var out []int32
	end := v + d.SubtreeSize(v) // last descendant's pre
	for c := v + 1; c <= end; c += 1 + d.SubtreeSize(c) {
		if d.kind[c] != Attr {
			out = append(out, c)
		}
	}
	return out
}

// Attributes returns the preorder ranks of the attribute nodes of v in
// document order.
func (d *Document) Attributes(v int32) []int32 {
	var out []int32
	end := v + d.SubtreeSize(v)
	for c := v + 1; c <= end && d.kind[c] == Attr; c++ {
		out = append(out, c)
	}
	return out
}

// FollowingSibling returns the preorder rank of the next sibling of v,
// or -1 if v is the last child. O(1) via Equation (1).
func (d *Document) FollowingSibling(v int32) int32 {
	p := d.parent[v]
	if p == NoParent {
		return -1
	}
	next := v + 1 + d.SubtreeSize(v)
	if next >= int32(d.Size()) || d.parent[next] != p {
		return -1
	}
	return next
}

// Validate performs a full consistency check of the encoding (column
// lengths, rank ranges, Equation (1), parent/level agreement). Intended
// for tests and document-loading assertions; cost is O(n).
func (d *Document) Validate() error {
	n := len(d.post)
	if len(d.level) != n || len(d.kind) != n || len(d.name) != n || len(d.parent) != n {
		return fmt.Errorf("doc: column length mismatch")
	}
	if d.valOff != nil && len(d.valOff) != n+1 {
		return fmt.Errorf("doc: value column length mismatch")
	}
	if n == 0 {
		return fmt.Errorf("doc: empty document")
	}
	seenPost := make([]bool, n)
	var maxLevel int32
	for pre := 0; pre < n; pre++ {
		if d.kind[pre] > VRoot {
			return fmt.Errorf("doc: node %d: invalid kind %d", pre, d.kind[pre])
		}
		if id := d.name[pre]; id < NoName || int(id) >= d.names.Len() && id != NoName {
			return fmt.Errorf("doc: node %d: name id %d outside dictionary (%d names)",
				pre, id, d.names.Len())
		}
		if l := d.level[pre]; l > maxLevel {
			maxLevel = l
		}
		post := d.post[pre]
		if post < 0 || int(post) >= n {
			return fmt.Errorf("doc: node %d: post rank %d out of range", pre, post)
		}
		if seenPost[post] {
			return fmt.Errorf("doc: duplicate post rank %d", post)
		}
		seenPost[post] = true
		p := d.parent[pre]
		switch {
		case pre == 0:
			if p != NoParent {
				return fmt.Errorf("doc: root has parent %d", p)
			}
			if d.level[0] != 0 {
				return fmt.Errorf("doc: root level %d != 0", d.level[0])
			}
		case p < 0 || p >= int32(pre):
			return fmt.Errorf("doc: node %d: bad parent %d", pre, p)
		default:
			if d.level[pre] != d.level[p]+1 {
				return fmt.Errorf("doc: node %d: level %d but parent level %d",
					pre, d.level[pre], d.level[p])
			}
			if !d.IsDescendant(p, int32(pre)) {
				return fmt.Errorf("doc: node %d not in plane region of parent %d", pre, p)
			}
		}
		if d.level[pre] > d.height {
			return fmt.Errorf("doc: node %d: level %d exceeds height %d", pre, d.level[pre], d.height)
		}
		// Equation (1) must be exact: recount descendants cheaply via
		// the pre interval [pre+1, pre+size].
		size := d.SubtreeSize(int32(pre))
		if size < 0 || int(size) > n-pre-1 {
			return fmt.Errorf("doc: node %d: subtree size %d out of range", pre, size)
		}
		if int(size) > 0 {
			last := int32(pre) + size
			if !d.IsDescendant(int32(pre), last) {
				return fmt.Errorf("doc: node %d: node %d not a descendant but inside size window", pre, last)
			}
			if int(last)+1 < n && d.IsDescendant(int32(pre), last+1) {
				return fmt.Errorf("doc: node %d: descendant %d outside size window", pre, last+1)
			}
		}
	}
	if maxLevel != d.height {
		return fmt.Errorf("doc: height %d but maximum level is %d", d.height, maxLevel)
	}
	return nil
}
