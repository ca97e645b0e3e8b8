package doc

import (
	"fmt"
	"io"
	"strings"

	"staircase/internal/xmltext"
)

// Serialize writes the subtree rooted at node root back out as XML.
// Serializing Root() round-trips the whole document (modulo whitespace
// dropped at shred time); serialization of documents built without
// values emits empty text/attribute content.
//
// Serialize demonstrates that the pre/post encoding is a lossless
// document store, not just an index: the single pre-ordered scan plus
// level information suffices to reconstruct the tree.
func (d *Document) Serialize(w io.Writer, root int32) error {
	if root < 0 || int(root) >= d.Size() {
		return fmt.Errorf("doc: serialize root %d out of range", root)
	}
	end := root + d.SubtreeSize(root)
	// Stack of currently open element pres.
	var open []int32
	closeTo := func(parent int32) error {
		for len(open) > 0 && open[len(open)-1] != parent {
			top := open[len(open)-1]
			open = open[:len(open)-1]
			if d.kind[top] == VRoot {
				continue
			}
			if _, err := fmt.Fprintf(w, "</%s>", d.Name(top)); err != nil {
				return err
			}
		}
		return nil
	}
	for v := root; v <= end; v++ {
		if d.kind[v] == Attr {
			continue // handled with the owner element
		}
		if v != root {
			if err := closeTo(d.parent[v]); err != nil {
				return err
			}
		}
		switch d.kind[v] {
		case Elem:
			if _, err := fmt.Fprintf(w, "<%s", d.Name(v)); err != nil {
				return err
			}
			for _, a := range d.Attributes(v) {
				if _, err := fmt.Fprintf(w, " %s=%q", d.Name(a), d.Value(a)); err != nil {
					return err
				}
			}
			if d.SubtreeSize(v) == int32(len(d.Attributes(v))) {
				// No non-attribute content: self-close.
				if _, err := io.WriteString(w, "/>"); err != nil {
					return err
				}
			} else {
				if _, err := io.WriteString(w, ">"); err != nil {
					return err
				}
				open = append(open, v)
			}
		case Text:
			if err := xmltext.EscapeText(w, d.Value(v)); err != nil {
				return err
			}
		case Comment:
			if _, err := fmt.Fprintf(w, "<!--%s-->", d.Value(v)); err != nil {
				return err
			}
		case PI:
			if _, err := fmt.Fprintf(w, "<?%s %s?>", d.Name(v), d.Value(v)); err != nil {
				return err
			}
		case VRoot:
			open = append(open, v)
		}
	}
	return closeTo(NoParent)
}

// XML returns the serialized subtree rooted at root as a string.
func (d *Document) XML(root int32) string {
	var sb strings.Builder
	if err := d.Serialize(&sb, root); err != nil {
		return "<!-- serialize error: " + err.Error() + " -->"
	}
	return sb.String()
}
