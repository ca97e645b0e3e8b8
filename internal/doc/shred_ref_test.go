package doc

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// refFeed is the encoding/xml shredder the scanner replaced, kept word
// for word as its differential oracle: it streams one document's tokens
// into the builder through the exported, string-taking events.
//
// One thing it does is not the scanner's to copy: it tests the
// *translated* name space of an attribute against the literal "xmlns",
// so a prefix bound to the URI "xmlns" (xmlns:p="xmlns") makes it drop
// every p:… attribute. uriIsXmlns reports that an input declared such a
// binding; the differential tests leave those inputs out.
func refFeed(b *Builder, r io.Reader, cfg shredConfig) (uriIsXmlns bool, err error) {
	dec := xml.NewDecoder(r)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return uriIsXmlns, fmt.Errorf("doc: XML parse error: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			b.OpenElem(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					if a.Value == "xmlns" {
						uriIsXmlns = true
					}
					continue // namespace declarations are not attribute nodes
				}
				b.Attr(a.Name.Local, a.Value)
			}
		case xml.EndElement:
			b.CloseElem()
		case xml.CharData:
			s := string(t)
			if !cfg.keepSpace && strings.TrimSpace(s) == "" {
				continue
			}
			b.Text(s)
		case xml.Comment:
			b.Comment(string(t))
		case xml.ProcInst:
			if t.Target == "xml" {
				continue // XML declaration, not a PI node
			}
			b.PI(t.Target, string(t.Inst))
		case xml.Directive:
			// DOCTYPE etc.: no node in the XPath data model.
		}
		if b.Err() != nil {
			return uriIsXmlns, b.Err()
		}
	}
	return uriIsXmlns, b.Err()
}
