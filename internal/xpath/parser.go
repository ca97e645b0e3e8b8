package xpath

import (
	"fmt"
	"strconv"
	"unicode"

	"staircase/internal/axis"
)

// Parse parses a single XPath location path (no top-level union).
// Diagnostics carry the byte offset of the offending token, e.g.
// "xpath: offset 12: trailing input at "]"".
func Parse(input string) (Path, error) {
	p := &parser{lex: newLexer(input)}
	path, err := p.parsePath()
	if err != nil {
		return Path{}, err
	}
	if t := p.lex.peek(); t.kind != tokEOF {
		return Path{}, fmt.Errorf("xpath: offset %d: trailing input at %q", t.off, t.text)
	} else if t.text != "" {
		return Path{}, fmt.Errorf("xpath: offset %d: %s", t.off, t.text)
	}
	return path, nil
}

// ParseQuery parses a top-level expression: one or more location paths
// combined with the '|' union operator. Like Parse, diagnostics carry
// the byte offset of the offending token.
func ParseQuery(input string) (Query, error) {
	p := &parser{lex: newLexer(input)}
	var q Query
	for {
		path, err := p.parsePath()
		if err != nil {
			return Query{}, err
		}
		q.Paths = append(q.Paths, path)
		switch t := p.lex.peek(); t.kind {
		case tokPipe:
			p.lex.next()
		case tokEOF:
			if t.text != "" {
				return Query{}, fmt.Errorf("xpath: offset %d: %s", t.off, t.text)
			}
			return q, nil
		default:
			return Query{}, fmt.Errorf("xpath: offset %d: trailing input at %q", t.off, t.text)
		}
	}
}

// MustParse parses a path and panics on error; for tests and constants.
func MustParse(input string) Path {
	p, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return p
}

// --- lexer -----------------------------------------------------------------

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokSlash
	tokDSlash // //
	tokName
	tokAt      // @
	tokStar    // *
	tokLParen  // (
	tokRParen  // )
	tokLBrack  // [
	tokRBrack  // ]
	tokDot     // .
	tokDotDot  // ..
	tokAxisSep // ::
	tokEq      // =
	tokNe      // !=
	tokLt      // <
	tokLe      // <=
	tokGt      // >
	tokGe      // >=
	tokComma   // ,
	tokString  // 'lit' or "lit"
	tokNumber  // 123 or 123.45
	tokPipe    // |
)

type token struct {
	kind tokKind
	text string
	off  int // byte offset of the token's first character in the input
}

type lexer struct {
	input string
	pos   int
	cur   token
	has   bool
}

func newLexer(in string) *lexer { return &lexer{input: in} }

func (l *lexer) peek() token {
	if !l.has {
		l.cur = l.scan()
		l.has = true
	}
	return l.cur
}

func (l *lexer) next() token {
	t := l.peek()
	l.has = false
	return t
}

func isNameStart(r byte) bool {
	return r == '_' || unicode.IsLetter(rune(r))
}

func isNameChar(r byte) bool {
	return r == '_' || r == '-' || unicode.IsLetter(rune(r)) || unicode.IsDigit(rune(r))
}

func (l *lexer) scan() token {
	for l.pos < len(l.input) && (l.input[l.pos] == ' ' || l.input[l.pos] == '\t' || l.input[l.pos] == '\n') {
		l.pos++
	}
	start := l.pos
	if l.pos >= len(l.input) {
		return token{kind: tokEOF, off: start}
	}
	c := l.input[l.pos]
	switch c {
	case '/':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '/' {
			l.pos += 2
			return token{kind: tokDSlash, text: "//", off: start}
		}
		l.pos++
		return token{kind: tokSlash, text: "/", off: start}
	case '@':
		l.pos++
		return token{kind: tokAt, text: "@", off: start}
	case '*':
		l.pos++
		return token{kind: tokStar, text: "*", off: start}
	case '(':
		l.pos++
		return token{kind: tokLParen, text: "(", off: start}
	case ')':
		l.pos++
		return token{kind: tokRParen, text: ")", off: start}
	case '[':
		l.pos++
		return token{kind: tokLBrack, text: "[", off: start}
	case ']':
		l.pos++
		return token{kind: tokRBrack, text: "]", off: start}
	case '|':
		l.pos++
		return token{kind: tokPipe, text: "|", off: start}
	case '=':
		l.pos++
		return token{kind: tokEq, text: "=", off: start}
	case '<':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokLe, text: "<=", off: start}
		}
		l.pos++
		return token{kind: tokLt, text: "<", off: start}
	case '>':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokGe, text: ">=", off: start}
		}
		l.pos++
		return token{kind: tokGt, text: ">", off: start}
	case ',':
		l.pos++
		return token{kind: tokComma, text: ",", off: start}
	case '!':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokNe, text: "!=", off: start}
		}
		l.pos++
		return token{kind: tokEOF, text: "!", off: start} // lone '!' surfaces as parse error
	case ':':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == ':' {
			l.pos += 2
			return token{kind: tokAxisSep, text: "::", off: start}
		}
		l.pos++
		return token{kind: tokEOF, text: ":", off: start}
	case '.':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '.' {
			l.pos += 2
			return token{kind: tokDotDot, text: "..", off: start}
		}
		l.pos++
		return token{kind: tokDot, text: ".", off: start}
	case '\'', '"':
		quote := c
		end := l.pos + 1
		for end < len(l.input) && l.input[end] != quote {
			end++
		}
		if end >= len(l.input) {
			return token{kind: tokEOF, text: "unterminated string", off: start}
		}
		s := l.input[l.pos+1 : end]
		l.pos = end + 1
		return token{kind: tokString, text: s, off: start}
	}
	if c >= '0' && c <= '9' {
		end := l.pos
		for end < len(l.input) && l.input[end] >= '0' && l.input[end] <= '9' {
			end++
		}
		// A decimal fraction joins the number only when a digit follows
		// the dot, so "1." stays NUMBER '.' and "1.5" is one token.
		if end+1 < len(l.input) && l.input[end] == '.' && l.input[end+1] >= '0' && l.input[end+1] <= '9' {
			end += 2
			for end < len(l.input) && l.input[end] >= '0' && l.input[end] <= '9' {
				end++
			}
		}
		t := token{kind: tokNumber, text: l.input[l.pos:end], off: start}
		l.pos = end
		return t
	}
	if isNameStart(c) {
		end := l.pos
		for end < len(l.input) && isNameChar(l.input[end]) {
			end++
		}
		t := token{kind: tokName, text: l.input[l.pos:end], off: start}
		l.pos = end
		return t
	}
	bad := string(c)
	l.pos++
	return token{kind: tokEOF, text: "unexpected character " + bad, off: start}
}

// --- parser ----------------------------------------------------------------

type parser struct {
	lex *lexer
	// depth is the predicate nesting at the current token; terms counts
	// the steps and predicate terms parsed so far.
	depth, terms int
}

// Query limits. Compiling a query costs about n^2.5 in its predicate
// nesting depth n (each predicate's path compiles to a sub-plan inside
// its enclosing one), so a few kilobytes of nested predicates could
// pin a core for seconds; past either limit the parser returns a
// *LimitError instead.
const (
	// MaxDepth bounds the nesting of predicates: [...] and not(...).
	MaxDepth = 32
	// MaxTerms bounds the location steps plus predicate terms of a
	// query, over all union branches.
	MaxTerms = 512
)

// LimitError reports a query that exceeds MaxDepth or MaxTerms.
type LimitError struct {
	// Offset is the byte offset at which the query crossed the limit.
	Offset int
	// Limit names the limit crossed: "depth" or "terms".
	Limit string
	// Max is the limit's value.
	Max int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("xpath: offset %d: query exceeds the %s limit of %d", e.Offset, e.Limit, e.Max)
}

// count charges one step or predicate term against MaxTerms.
func (p *parser) count() error {
	if p.terms++; p.terms > MaxTerms {
		return &LimitError{Offset: p.lex.peek().off, Limit: "terms", Max: MaxTerms}
	}
	return nil
}

// errf builds a diagnostic anchored at the byte offset of the token
// the parser is currently looking at.
func (p *parser) errf(format string, args ...any) error {
	return p.errAt(p.lex.peek().off, format, args...)
}

// errAt builds a diagnostic anchored at an explicit byte offset.
func (p *parser) errAt(off int, format string, args ...any) error {
	return fmt.Errorf("xpath: offset %d: "+format, append([]any{off}, args...)...)
}

// parsePath parses an (absolute or relative) location path.
func (p *parser) parsePath() (Path, error) {
	var path Path
	switch p.lex.peek().kind {
	case tokSlash:
		p.lex.next()
		path.Absolute = true
		if p.lex.peek().kind == tokEOF {
			// "/" alone: the root. Represent as absolute self::node().
			path.Steps = append(path.Steps, Step{Axis: axis.Self, Test: NodeTest{Kind: TestNode}})
			return path, nil
		}
	case tokDSlash:
		p.lex.next()
		path.Absolute = true
		path.Steps = append(path.Steps, Step{Axis: axis.DescendantOrSelf, Test: NodeTest{Kind: TestNode}})
	}
	for {
		step, err := p.parseStep()
		if err != nil {
			return Path{}, err
		}
		path.Steps = append(path.Steps, step)
		switch p.lex.peek().kind {
		case tokSlash:
			p.lex.next()
		case tokDSlash:
			p.lex.next()
			path.Steps = append(path.Steps, Step{Axis: axis.DescendantOrSelf, Test: NodeTest{Kind: TestNode}})
		default:
			return path, nil
		}
	}
}

// parseStep parses one location step including predicates.
func (p *parser) parseStep() (Step, error) {
	if err := p.count(); err != nil {
		return Step{}, err
	}
	var step Step
	tok := p.lex.peek()
	switch tok.kind {
	case tokDot:
		p.lex.next()
		step = Step{Axis: axis.Self, Test: NodeTest{Kind: TestNode}}
	case tokDotDot:
		p.lex.next()
		step = Step{Axis: axis.Parent, Test: NodeTest{Kind: TestNode}}
	case tokAt:
		p.lex.next()
		test, err := p.parseNodeTest()
		if err != nil {
			return Step{}, err
		}
		step = Step{Axis: axis.Attribute, Test: test}
	case tokName:
		// Either "axis::..." or a child-axis name test (possibly a
		// kind test like text()).
		name := tok.text
		p.lex.next()
		if p.lex.peek().kind == tokAxisSep {
			p.lex.next()
			a, err := axis.Parse(name)
			if err != nil {
				return Step{}, p.errAt(tok.off, "unknown axis %q", name)
			}
			test, err := p.parseNodeTest()
			if err != nil {
				return Step{}, err
			}
			step = Step{Axis: a, Test: test}
		} else {
			test, err := p.finishNodeTest(name)
			if err != nil {
				return Step{}, err
			}
			step = Step{Axis: axis.Child, Test: test}
		}
	case tokStar:
		p.lex.next()
		step = Step{Axis: axis.Child, Test: NodeTest{Kind: TestAny}}
	default:
		return Step{}, p.errf("expected location step, got %q", tok.text)
	}
	for p.lex.peek().kind == tokLBrack {
		p.lex.next()
		pred, err := p.parsePredicate()
		if err != nil {
			return Step{}, err
		}
		if p.lex.peek().kind != tokRBrack {
			return Step{}, p.errf("expected ']', got %q", p.lex.peek().text)
		}
		p.lex.next()
		step.Preds = append(step.Preds, pred)
	}
	return step, nil
}

// parseNodeTest parses a node test starting at the current token.
func (p *parser) parseNodeTest() (NodeTest, error) {
	tok := p.lex.peek()
	switch tok.kind {
	case tokStar:
		p.lex.next()
		return NodeTest{Kind: TestAny}, nil
	case tokName:
		p.lex.next()
		return p.finishNodeTest(tok.text)
	default:
		return NodeTest{}, p.errf("expected node test, got %q", tok.text)
	}
}

// finishNodeTest resolves a name that may turn out to be a kind test
// such as node() or text().
func (p *parser) finishNodeTest(name string) (NodeTest, error) {
	if p.lex.peek().kind != tokLParen {
		return NodeTest{Kind: TestName, Name: name}, nil
	}
	p.lex.next() // consume '('
	var arg string
	if p.lex.peek().kind == tokString || p.lex.peek().kind == tokName {
		arg = p.lex.next().text
	}
	if p.lex.peek().kind != tokRParen {
		return NodeTest{}, p.errf("expected ')' after %s(", name)
	}
	p.lex.next()
	switch name {
	case "node":
		return NodeTest{Kind: TestNode}, nil
	case "text":
		return NodeTest{Kind: TestText}, nil
	case "comment":
		return NodeTest{Kind: TestComment}, nil
	case "processing-instruction":
		return NodeTest{Kind: TestPI, Name: arg}, nil
	default:
		return NodeTest{}, p.errf("unknown kind test %s()", name)
	}
}

// parsePredicate parses the expression inside [...]: a term chain
// combined with 'and'/'or' ('and' binds tighter, per XPath).
func (p *parser) parsePredicate() (Predicate, error) {
	if p.depth++; p.depth > MaxDepth {
		return nil, &LimitError{Offset: p.lex.peek().off, Limit: "depth", Max: MaxDepth}
	}
	defer func() { p.depth-- }()
	return p.parseOrExpr()
}

// parseOrExpr parses andExpr ('or' andExpr)*.
func (p *parser) parseOrExpr() (Predicate, error) {
	first, err := p.parseAndExpr()
	if err != nil {
		return nil, err
	}
	preds := []Predicate{first}
	for p.lex.peek().kind == tokName && p.lex.peek().text == "or" {
		p.lex.next()
		next, err := p.parseAndExpr()
		if err != nil {
			return nil, err
		}
		preds = append(preds, next)
	}
	if len(preds) == 1 {
		return first, nil
	}
	return Or{Preds: preds}, nil
}

// parseAndExpr parses term ('and' term)*.
func (p *parser) parseAndExpr() (Predicate, error) {
	first, err := p.parsePredTerm()
	if err != nil {
		return nil, err
	}
	preds := []Predicate{first}
	for p.lex.peek().kind == tokName && p.lex.peek().text == "and" {
		p.lex.next()
		next, err := p.parsePredTerm()
		if err != nil {
			return nil, err
		}
		preds = append(preds, next)
	}
	if len(preds) == 1 {
		return first, nil
	}
	return And{Preds: preds}, nil
}

// parsePredTerm parses a single predicate term.
func (p *parser) parsePredTerm() (Predicate, error) {
	if err := p.count(); err != nil {
		return nil, err
	}
	tok := p.lex.peek()
	switch tok.kind {
	case tokNumber:
		p.lex.next()
		n, err := strconv.Atoi(tok.text)
		if err != nil || n < 1 {
			return nil, p.errAt(tok.off, "bad position %q", tok.text)
		}
		return Position{N: n}, nil
	case tokName:
		switch tok.text {
		case "position":
			// position() = N
			save := *p.lex
			p.lex.next()
			if p.lex.peek().kind == tokLParen {
				p.lex.next()
				if p.lex.peek().kind != tokRParen {
					return nil, p.errf("expected ')' after position(")
				}
				p.lex.next()
				if p.lex.peek().kind != tokEq {
					return nil, p.errf("expected '=' after position()")
				}
				p.lex.next()
				num := p.lex.next()
				if num.kind != tokNumber {
					return nil, p.errAt(num.off, "expected number after position()=")
				}
				n, err := strconv.Atoi(num.text)
				if err != nil || n < 1 {
					return nil, p.errAt(num.off, "bad position %q", num.text)
				}
				return Position{N: n}, nil
			}
			*p.lex = save // it was a path starting with element "position"
		case "last":
			save := *p.lex
			p.lex.next()
			if p.lex.peek().kind == tokLParen {
				p.lex.next()
				if p.lex.peek().kind != tokRParen {
					return nil, p.errf("expected ')' after last(")
				}
				p.lex.next()
				return Last{}, nil
			}
			*p.lex = save
		case "not":
			save := *p.lex
			p.lex.next()
			if p.lex.peek().kind == tokLParen {
				p.lex.next()
				inner, err := p.parsePredicate()
				if err != nil {
					return nil, err
				}
				if p.lex.peek().kind != tokRParen {
					return nil, p.errf("expected ')' after not(...")
				}
				p.lex.next()
				return Not{Inner: inner}, nil
			}
			*p.lex = save
		case "contains":
			save := *p.lex
			p.lex.next()
			if p.lex.peek().kind == tokLParen {
				p.lex.next()
				path, err := p.parsePath()
				if err != nil {
					return nil, err
				}
				if p.lex.peek().kind != tokComma {
					return nil, p.errf("expected ',' in contains(...), got %q", p.lex.peek().text)
				}
				p.lex.next()
				lit := p.lex.next()
				if lit.kind != tokString {
					if lit.kind == tokEOF && lit.text != "" {
						return nil, p.errAt(lit.off, "%s", lit.text)
					}
					return nil, p.errAt(lit.off, "expected string literal in contains(...), got %q", lit.text)
				}
				if p.lex.peek().kind != tokRParen {
					return nil, p.errf("expected ')' after contains(...), got %q", p.lex.peek().text)
				}
				p.lex.next()
				return Contains{Path: path, Literal: lit.text}, nil
			}
			*p.lex = save // it was a path starting with element "contains"
		}
	}
	// Otherwise: a relative (or absolute) path, optionally compared to
	// a literal.
	path, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	switch p.lex.peek().kind {
	case tokEq, tokNe, tokLt, tokLe, tokGt, tokGe:
		var op CompareOp
		switch p.lex.next().kind {
		case tokEq:
			op = OpEq
		case tokNe:
			op = OpNe
		case tokLt:
			op = OpLt
		case tokLe:
			op = OpLe
		case tokGt:
			op = OpGt
		case tokGe:
			op = OpGe
		}
		lit := p.lex.next()
		switch lit.kind {
		case tokString:
			return Compare{Path: path, Op: op, Literal: lit.text}, nil
		case tokNumber:
			if _, ok := ParseNumber(lit.text); !ok {
				return nil, p.errAt(lit.off, "bad number %q", lit.text)
			}
			return Compare{Path: path, Op: op, Literal: lit.text, Numeric: true}, nil
		default:
			if lit.kind == tokEOF && lit.text != "" {
				return nil, p.errAt(lit.off, "%s", lit.text) // lexer diagnostic, e.g. unterminated string
			}
			return nil, p.errAt(lit.off, "expected string or number literal after comparison, got %q", lit.text)
		}
	default:
		return Exists{Path: path}, nil
	}
}
