package doc

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"staircase/internal/xmltext"
)

// scanner is the XML well-formedness scanner behind Shred: one pass
// over a buffered window of the input, names through the dictionary,
// character data decoded straight onto the tail of the builder's value
// arena. It accepts what strict encoding/xml accepts — its oracle in
// the tests — and nothing more; docs/ARCHITECTURE.md has the table.
// The lexical rules it applies are internal/xmltext's.
type scanner struct {
	r         io.Reader
	b         *Builder
	keepSpace bool

	buf      []byte // the window: buf[pos:end] is unread input
	pos, end int
	rerr     error // what ended the input: io.EOF or a read error

	open      []byte // the raw names of the open elements, end to end
	openStart []int  // where each of them starts in open
}

// scanError is what the scanning methods panic with; run turns it back
// into the error Shred returns.
type scanError struct{ error }

func (s *scanner) fail(format string, args ...any) {
	panic(scanError{fmt.Errorf("doc: XML parse error: "+format, args...)})
}

// run scans one document into the builder.
func (s *scanner) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(scanError)
			if !ok {
				panic(r)
			}
			err = e.error
		}
	}()
	for s.b.err == nil && (s.more() || len(s.openStart) > 0 || s.rerr != io.EOF) {
		if s.mustc() != '<' {
			s.pos--
			s.text(xmltext.InText, 0)
			continue
		}
		switch s.mustc() {
		case '/':
			s.endTag()
		case '?':
			s.procInst()
		case '!':
			switch s.mustc() {
			case '-':
				s.expect("-")
				s.until("--")
				s.expect(">")
				s.b.misc(Comment, NoName)
			case '[':
				s.expect("CDATA[")
				s.text(xmltext.InCDATA, 0)
			default:
				s.directive()
			}
		default:
			s.pos--
			s.startTag()
		}
	}
	return s.b.err
}

// fill slides buf[keep:end] to the front of the window — keep is the
// oldest byte the caller still needs, at or before pos — and reads more
// input behind it, doubling a window that is full from its first byte.
// It reports whether any input arrived.
func (s *scanner) fill(keep int) bool {
	if keep > 0 {
		s.end = copy(s.buf, s.buf[keep:s.end])
		s.pos -= keep
	} else if s.end == len(s.buf) && s.rerr == nil {
		s.buf = append(s.buf, make([]byte, len(s.buf))...)
	}
	for empty := 0; s.rerr == nil; empty++ {
		var n int
		if n, s.rerr = s.r.Read(s.buf[s.end:]); n > 0 {
			s.end += n
			return true
		}
		if empty == 100 && s.rerr == nil {
			s.rerr = io.ErrNoProgress
		}
	}
	return false
}

// more reports whether there is unread input, reading some if need be.
func (s *scanner) more() bool { return s.pos < s.end || s.fill(s.pos) }

// mustc returns the next byte of a construct the input may not end in.
func (s *scanner) mustc() byte {
	if !s.more() {
		if s.rerr != io.EOF {
			s.fail("%w", s.rerr)
		}
		s.fail("unexpected EOF")
	}
	s.pos++
	return s.buf[s.pos-1]
}

func (s *scanner) expect(want string) {
	for i := range len(want) {
		if c := s.mustc(); c != want[i] {
			s.fail("%q where %q must follow", c, want[i])
		}
	}
}

func (s *scanner) space() {
	for s.more() && (s.buf[s.pos] == ' ' || s.buf[s.pos] == '\n' || s.buf[s.pos] == '\r' || s.buf[s.pos] == '\t') {
		s.pos++
	}
}

// until copies input to the tail of the arena up to term, which it
// consumes without copying.
func (s *scanner) until(term string) {
	from := len(s.b.text)
	for !bytes.HasSuffix(s.b.text[from:], []byte(term)) {
		s.b.text = append(s.b.text, s.mustc())
	}
	s.b.text = s.b.text[:len(s.b.text)-len(term)]
}

// name reads a name — name bytes and anything non-ASCII, as far as they
// go — and checks it. The result is only valid until the next read.
func (s *scanner) name() []byte {
	start, all := s.pos, byte(0)
	for ; ; s.pos++ {
		if s.pos == s.end {
			if !s.fill(start) {
				s.mustc()
			}
			start = 0
		}
		if xmltext.Class[s.buf[s.pos]]&xmltext.NameByte == 0 {
			break
		}
		all |= s.buf[s.pos]
	}
	n := s.buf[start:s.pos]
	if ascii := all < utf8.RuneSelf; len(n) == 0 || ascii && xmltext.Class[n[0]]&xmltext.NameStart == 0 || !ascii && !xmltext.IsName(n) {
		s.fail("invalid XML name %q", n)
	}
	return n
}

// qname reads an element or attribute name and splits off its prefix.
// Only a name with one colon and something on either side has one.
func (s *scanner) qname() (raw, prefix, local []byte) {
	raw = s.name()
	i := bytes.IndexByte(raw, ':')
	if i >= 0 && bytes.IndexByte(raw[i+1:], ':') >= 0 {
		s.fail("name %q has more than one colon", raw)
	}
	if i <= 0 || i == len(raw)-1 {
		return raw, nil, raw
	}
	return raw, raw[:i], raw[i+1:]
}

func (s *scanner) startTag() {
	raw, _, local := s.qname()
	s.openStart = append(s.openStart, len(s.open))
	s.open = append(s.open, raw...)
	s.b.openElem(s.b.names.internBytes(local))
	for {
		s.space()
		switch s.mustc() {
		case '/':
			s.expect(">")
			s.closeElem()
			return
		case '>':
			return
		}
		s.pos--
		_, prefix, local := s.qname()
		id := NoName // a namespace declaration is not an attribute node
		if string(prefix) != "xmlns" && string(local) != "xmlns" {
			id = s.b.names.internBytes(local)
		}
		s.space()
		s.expect("=")
		s.space()
		quote := s.mustc()
		if quote != '"' && quote != '\'' {
			s.fail("unquoted or missing attribute value in element")
		}
		s.text(xmltext.InAttr, quote)
		if id == NoName {
			s.b.text = s.b.text[:s.b.committed()]
		} else {
			s.b.attr(id)
		}
	}
}

func (s *scanner) endTag() {
	raw, _, _ := s.qname()
	if n := len(s.openStart); n == 0 || !bytes.Equal(s.open[s.openStart[n-1]:], raw) {
		s.fail("end tag </%s> does not close the open element", raw)
	}
	s.space()
	s.expect(">")
	s.closeElem()
}

func (s *scanner) closeElem() {
	s.open = s.open[:s.openStart[len(s.openStart)-1]]
	s.openStart = s.openStart[:len(s.openStart)-1]
	s.b.CloseElem()
}

// text scans one run of character data onto the tail of the arena: an
// attribute value up to its closing quote, the body of a CDATA section
// up to ]]>, or text up to the next '<' or the end of the input — and
// these last two, unless they are whitespace to be dropped, become text.
// stop is the class of the bytes that need a look.
func (s *scanner) text(stop uint8, quote byte) {
	out := s.b.text
	raw := len(out) // out[raw:] is input copied as it stood, where ]]> shows
scan:
	for {
		i := s.pos
		for i < s.end && xmltext.Class[s.buf[i]]&stop == 0 {
			i++
		}
		out = append(out, s.buf[s.pos:i]...)
		s.pos = i
		if i == s.end && !s.fill(i) {
			if stop != xmltext.InText || s.rerr != io.EOF {
				s.mustc()
			}
			break
		}
		c := s.buf[s.pos]
		switch {
		case xmltext.Class[c]&stop == 0: // the window moved on; copy on
			continue
		case c == '<' && stop == xmltext.InAttr:
			s.fail("unescaped < inside quoted string")
		case c == '<' && stop == xmltext.InText:
			break scan
		case c == '&' && stop != xmltext.InCDATA:
			s.pos++
			s.b.text = out
			r := s.reference()
			out = utf8.AppendRune(s.b.text, r)
			raw = len(out)
			continue
		case c == '>' && bytes.HasSuffix(out[raw:], []byte("]]")):
			if stop == xmltext.InText {
				s.fail("unescaped ]]> not in CDATA section")
			}
			s.pos++
			out = out[:len(out)-2]
			break scan
		case c == '\r': // \r\n and \r are both \n
			if s.pos++; s.more() && s.buf[s.pos] == '\n' {
				s.pos++
			}
			out = append(out, '\n')
			continue
		case c >= utf8.RuneSelf:
			if s.end-s.pos < utf8.UTFMax && s.fill(s.pos) {
				continue
			}
			r, size := utf8.DecodeRune(s.buf[s.pos:s.end])
			if r == utf8.RuneError && size == 1 {
				s.fail("invalid UTF-8")
			}
			s.checkChar(r)
			out = append(out, s.buf[s.pos:s.pos+size-1]...)
			s.pos += size - 1
		case c < ' ':
			s.checkChar(rune(c))
		case c == quote:
			s.pos++
			s.b.text = out
			return
		}
		out = append(out, s.buf[s.pos])
		s.pos++
	}
	if tok := out[s.b.committed():]; !s.keepSpace && len(bytes.TrimSpace(tok)) == 0 {
		s.b.text = out[:len(out)-len(tok)]
		return
	}
	s.b.text = out
	s.b.addText()
}

// checkChar fails for a code point outside the XML Char production.
func (s *scanner) checkChar(r rune) {
	if !xmltext.IsChar(r) {
		s.fail("illegal character code %U", r)
	}
}

// reference decodes a character or entity reference after its '&'. It
// reads to the ';' first, past the tail of the arena: nothing
// well-formed has anything but a name or a number in between.
func (s *scanner) reference() rune {
	from := len(s.b.text)
	s.until(";")
	body := s.b.text[from:]
	s.b.text = s.b.text[:from]
	if r, ok := xmltext.Entities[string(body)]; ok {
		return r
	}
	digits, base := bytes.TrimPrefix(body, []byte("#")), 10
	if bytes.HasPrefix(digits, []byte("x")) {
		digits, base = digits[1:], 16
	}
	n, err := strconv.ParseUint(string(digits), base, 32)
	if len(digits) == len(body) || err != nil || n > utf8.MaxRune {
		s.fail("invalid character entity &%s;", body)
	}
	r := rune(n)
	if r >= 0xD800 && r <= 0xDFFF {
		r = utf8.RuneError // what a surrogate converts to
	}
	s.checkChar(r)
	return r
}

// procInst scans a processing instruction after its <?.
func (s *scanner) procInst() {
	target := s.name()
	decl, id := string(target) == "xml", NoName
	if !decl && !s.b.outside() {
		id = s.b.names.internBytes(target)
	}
	s.space()
	from := len(s.b.text)
	s.until("?>")
	if !decl {
		s.b.misc(PI, id)
		return
	}
	err := xmltext.CheckDecl(string(s.b.text[from:]))
	if s.b.text = s.b.text[:from]; err != nil {
		s.fail("%v", err)
	}
}

// directive skips a <!DOCTYPE …> or other declaration, whose first byte
// is taken unseen: to the first '>' outside quotes, nested <…> pairs and
// comments.
func (s *scanner) directive() {
	var quote byte
	for depth := 0; ; {
		c := s.mustc()
		if quote == 0 && c == '>' && depth == 0 {
			return
		}
	again:
		switch {
		case c == quote:
			quote = 0
		case quote != 0:
		case c == '\'' || c == '"':
			quote = c
		case c == '>':
			depth--
		case c == '<':
			for _, want := range []byte("!--") {
				if c = s.mustc(); c != want {
					depth++
					goto again
				}
			}
			s.until("-->")
			s.b.text = s.b.text[:s.b.committed()]
		}
	}
}
