package doc

import (
	"errors"
	"fmt"
	"math"
)

// Builder constructs a pre/post encoded Document from a stream of
// open/attribute/text/close events (a SAX-style shredding interface).
// Ranks are assigned online: pre on node entry, post on node exit, so
// building is a single pass and never materialises a pointer-based tree.
//
// Attribute nodes are entered (and immediately exited) directly after
// their owner element, before any children — this keeps every encoding
// invariant (descendant window, Equation (1)) intact for attributes too.
type Builder struct {
	post   []int32
	level  []int32
	kind   []Kind
	name   []int32
	parent []int32

	// text is the value arena. A node's value is written to its tail
	// first — by the string-taking events below, or in place by the
	// scanner — and push commits it: valOff[pre+1] is where the value of
	// node pre ends. Without keepValues the tail is scratch and valOff
	// stays nil.
	valOff []uint32
	text   []byte

	names      *Dict
	keepValues bool

	stack       []int32 // pres of open elements
	postCounter int32
	height      int32
	attrsOK     bool // attributes only directly after OpenElem
	roots       int  // top-level nodes seen
	virtual     bool // building under a virtual root
	err         error
}

// BuilderOption configures a Builder.
type BuilderOption func(*Builder)

// WithoutValues drops node string values (text content, attribute
// values) to save memory; the structural encoding is unaffected. Large
// benchmark documents are built this way.
func WithoutValues() BuilderOption {
	return func(b *Builder) { b.keepValues = false }
}

// WithVirtualRoot opens a virtual root node before the first event, so
// several documents can be appended as siblings and queried as one
// plane (footnote 1 of the paper: multi-document databases).
func WithVirtualRoot() BuilderOption {
	return func(b *Builder) { b.virtual = true }
}

// WithDict makes the builder intern names into an existing dictionary
// (useful when several documents must share name ids).
func WithDict(d *Dict) BuilderOption {
	return func(b *Builder) { b.names = d }
}

// NewBuilder returns a Builder ready to receive events.
func NewBuilder(opts ...BuilderOption) *Builder {
	b := &Builder{keepValues: true}
	for _, o := range opts {
		o(b)
	}
	if b.names == nil {
		b.names = NewDict()
	}
	if b.keepValues {
		b.valOff = []uint32{0}
	}
	if b.virtual {
		b.push(VRoot, NoName)
	}
	return b
}

// fail records the first error; subsequent events become no-ops.
func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// push enters a new node, whose value is the uncommitted tail of the
// arena, and returns its pre rank.
func (b *Builder) push(k Kind, nameID int32) int32 {
	pre := int32(len(b.post))
	lvl := int32(len(b.stack))
	par := NoParent
	if len(b.stack) > 0 {
		par = b.stack[len(b.stack)-1]
	} else {
		b.roots++
	}
	b.post = append(b.post, -1) // patched on exit
	b.level = append(b.level, lvl)
	b.kind = append(b.kind, k)
	b.name = append(b.name, nameID)
	b.parent = append(b.parent, par)
	b.commit()
	if lvl > b.height {
		b.height = lvl
	}
	b.stack = append(b.stack, pre)
	return pre
}

// commit makes the arena tail the value of the last node (extending it,
// if the node had one).
func (b *Builder) commit() {
	switch {
	case !b.keepValues:
		b.text = b.text[:0]
	case uint64(len(b.text)) > math.MaxUint32:
		b.fail("doc: more than 4 GiB of node values")
	case len(b.valOff) > len(b.post):
		b.valOff[len(b.post)] = uint32(len(b.text))
	default:
		b.valOff = append(b.valOff, uint32(len(b.text)))
	}
}

// committed returns where the uncommitted tail of the arena starts.
func (b *Builder) committed() int {
	if !b.keepValues {
		return 0
	}
	return int(b.valOff[len(b.post)])
}

// pop exits the innermost open node, assigning its post rank.
func (b *Builder) pop() {
	pre := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	b.post[pre] = b.postCounter
	b.postCounter++
}

// leaf enters and immediately exits a childless node.
func (b *Builder) leaf(k Kind, nameID int32) {
	b.push(k, nameID)
	b.pop()
}

// The events that carry a name or a value come in two forms: the
// exported one takes strings; the one the scanner calls takes a name id
// and finds the value already at the tail of the arena.

// OpenElem starts an element node with the given tag name.
func (b *Builder) OpenElem(tag string) { b.openElem(b.names.Intern(tag)) }

func (b *Builder) openElem(id int32) {
	if b.err != nil {
		return
	}
	if len(b.stack) == 0 && b.roots > 0 {
		b.fail("doc: second root element %q (use WithVirtualRoot for collections)", b.names.Name(id))
		return
	}
	b.push(Elem, id)
	b.attrsOK = true
}

// Attr adds an attribute node to the currently open element. Attributes
// must be added before any text or child events of that element.
func (b *Builder) Attr(name, val string) {
	b.text = append(b.text, val...)
	b.attr(b.names.Intern(name))
}

func (b *Builder) attr(id int32) {
	if b.err != nil {
		return
	}
	if len(b.stack) == 0 || b.kind[b.stack[len(b.stack)-1]] != Elem || !b.attrsOK {
		b.fail("doc: attribute %q outside element start", b.names.Name(id))
		return
	}
	b.leaf(Attr, id)
}

// Text adds a text node under the currently open element. Adjacent text
// is merged into a single node, keeping text nodes maximal as the XPath
// data model requires.
func (b *Builder) Text(s string) {
	b.text = append(b.text, s...)
	b.addText()
}

func (b *Builder) addText() {
	if b.err != nil {
		return
	}
	if len(b.stack) == 0 {
		b.fail("doc: text content outside any element")
		return
	}
	b.attrsOK = false
	if last := len(b.post) - 1; last >= 0 &&
		b.kind[last] == Text &&
		b.parent[last] == b.stack[len(b.stack)-1] &&
		b.post[last] == b.postCounter-1 {
		b.commit() // the previous node is this text: its value grows
		return
	}
	b.leaf(Text, NoName)
}

// outside reports that a comment or PI arriving now would sit outside
// the root. That is legal XML, but the node needs a parent in the
// plane: it is kept in collections and silently dropped otherwise,
// before its name is interned or its value written.
func (b *Builder) outside() bool { return len(b.stack) == 0 && !b.virtual }

// Comment adds a comment node.
func (b *Builder) Comment(s string) {
	b.text = append(b.text, s...)
	b.misc(Comment, NoName)
}

// PI adds a processing-instruction node with the given target and data.
func (b *Builder) PI(target, data string) {
	if !b.outside() {
		b.text = append(b.text, data...)
		b.misc(PI, b.names.Intern(target))
	}
}

func (b *Builder) misc(k Kind, id int32) {
	if b.err != nil {
		return
	}
	if b.outside() {
		b.text = b.text[:b.committed()]
		return
	}
	b.leaf(k, id)
	b.attrsOK = false
}

// CloseElem ends the innermost open element.
func (b *Builder) CloseElem() {
	if b.err != nil {
		return
	}
	if len(b.stack) == 0 || b.kind[b.stack[len(b.stack)-1]] != Elem {
		b.fail("doc: CloseElem without open element")
		return
	}
	b.pop()
	b.attrsOK = false
}

// Err returns the first event error, if any.
func (b *Builder) Err() error { return b.err }

// Done finalises the document. After Done the builder must not be used.
func (b *Builder) Done() (*Document, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.virtual {
		if len(b.stack) != 1 {
			return nil, errors.New("doc: unclosed elements at Done")
		}
		b.pop()
	} else if len(b.stack) != 0 {
		return nil, fmt.Errorf("doc: %d unclosed element(s) at Done", len(b.stack))
	}
	if len(b.post) == 0 {
		return nil, errors.New("doc: no content")
	}
	d := &Document{
		post:   b.post,
		level:  b.level,
		kind:   b.kind,
		name:   b.name,
		parent: b.parent,
		valOff: b.valOff,
		names:  b.names,
		height: b.height,
	}
	if b.keepValues {
		// The copy sheds the slack append left in the arena.
		d.valText = string(b.text[:b.valOff[len(b.post)]])
	}
	return d, nil
}
