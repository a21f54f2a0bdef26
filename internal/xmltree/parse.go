package xmltree

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError reports a syntax error with its position in the input.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xmltree: parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Parse parses a single XML document (one root element, optional
// prolog/comments/PIs around it) and returns the root element node.
//
// Supported syntax: elements, attributes (single or double quoted),
// character data, the five predefined entities plus decimal and hex
// character references, CDATA sections, comments, processing
// instructions, and a skipped DOCTYPE declaration. Namespaces are not
// interpreted: a prefixed name is just a label containing ':'.
func Parse(input string) (*Node, error) {
	p := &parser{src: input, line: 1, col: 1}
	p.skipProlog()
	root, err := p.parseElement()
	if err != nil {
		return nil, err
	}
	p.skipMisc()
	if !p.eof() {
		return nil, p.errf("trailing content after document element")
	}
	return root, nil
}

// ParseFragment parses a sequence of top-level nodes (a forest). It is
// used for streams of trees and for service-call parameter lists.
func ParseFragment(input string) ([]*Node, error) {
	p := &parser{src: input, line: 1, col: 1}
	var out []*Node
	for !p.eof() {
		n, err := p.parseContentItem()
		if err != nil {
			return nil, err
		}
		if n != nil {
			out = append(out, n)
		}
	}
	// Drop pure-whitespace text at the fragment edges.
	filtered := out[:0]
	for _, n := range out {
		if n.Kind == TextNode && strings.TrimSpace(n.Text) == "" {
			continue
		}
		filtered = append(filtered, n)
	}
	return filtered, nil
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(input string) *Node {
	n, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return n
}

type parser struct {
	src  string
	pos  int
	line int
	col  int
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) peekAt(off int) byte {
	if p.pos+off >= len(p.src) {
		return 0
	}
	return p.src[p.pos+off]
}

func (p *parser) advance() byte {
	c := p.src[p.pos]
	p.pos++
	if c == '\n' {
		p.line++
		p.col = 1
	} else {
		p.col++
	}
	return c
}

func (p *parser) advanceN(n int) {
	for i := 0; i < n && !p.eof(); i++ {
		p.advance()
	}
}

// skipTo moves to byte offset end, counting the lines and columns of
// the run it passes over without visiting its bytes one by one.
func (p *parser) skipTo(end int) {
	run := p.src[p.pos:end]
	if nl := strings.Count(run, "\n"); nl > 0 {
		p.line += nl
		p.col = len(run) - strings.LastIndexByte(run, '\n')
	} else {
		p.col += len(run)
	}
	p.pos = end
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) hasPrefix(s string) bool {
	return strings.HasPrefix(p.src[p.pos:], s)
}

func (p *parser) skipWS() {
	for !p.eof() {
		switch p.peek() {
		case ' ', '\t', '\r', '\n':
			p.advance()
		default:
			return
		}
	}
}

// skipProlog consumes the XML declaration, DOCTYPE, comments, PIs and
// whitespace preceding the document element.
func (p *parser) skipProlog() {
	for {
		p.skipWS()
		switch {
		case p.hasPrefix("<?"):
			p.skipUntil("?>")
		case p.hasPrefix("<!--"):
			p.skipUntil("-->")
		case p.hasPrefix("<!DOCTYPE"):
			p.skipDoctype()
		default:
			return
		}
	}
}

// skipMisc consumes trailing comments/PIs/whitespace after the root.
func (p *parser) skipMisc() {
	for {
		p.skipWS()
		switch {
		case p.hasPrefix("<?"):
			p.skipUntil("?>")
		case p.hasPrefix("<!--"):
			p.skipUntil("-->")
		default:
			return
		}
	}
}

func (p *parser) skipUntil(end string) {
	idx := strings.Index(p.src[p.pos:], end)
	if idx < 0 {
		p.advanceN(len(p.src) - p.pos)
		return
	}
	p.advanceN(idx + len(end))
}

// skipDoctype consumes a DOCTYPE declaration, balancing an optional
// internal subset in brackets.
func (p *parser) skipDoctype() {
	depth := 0
	for !p.eof() {
		c := p.advance()
		switch c {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				return
			}
		}
	}
}

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (p *parser) parseName() (string, error) {
	if p.eof() || !isNameStart(p.peek()) {
		return "", p.errf("expected name, found %q", string(p.peek()))
	}
	start := p.pos
	for !p.eof() && isNameChar(p.peek()) {
		p.advance()
	}
	return p.src[start:p.pos], nil
}

func (p *parser) parseElement() (*Node, error) {
	if p.peek() != '<' {
		return nil, p.errf("expected '<', found %q", string(p.peek()))
	}
	p.advance() // consume '<'
	name, err := p.parseName()
	if err != nil {
		return nil, err
	}
	el := NewElement(name)
	// Attributes.
	for {
		p.skipWS()
		c := p.peek()
		if c == '>' || c == '/' || c == 0 {
			break
		}
		aname, err := p.parseName()
		if err != nil {
			return nil, err
		}
		p.skipWS()
		if p.peek() != '=' {
			return nil, p.errf("expected '=' after attribute %q", aname)
		}
		p.advance()
		p.skipWS()
		aval, err := p.parseAttrValue()
		if err != nil {
			return nil, err
		}
		if _, dup := el.Attr(aname); dup {
			return nil, p.errf("duplicate attribute %q on element %q", aname, name)
		}
		el.Attrs = append(el.Attrs, Attr{Name: aname, Value: aval})
	}
	switch p.peek() {
	case '/':
		p.advance()
		if p.peek() != '>' {
			return nil, p.errf("expected '>' after '/' in empty-element tag")
		}
		p.advance()
		return el, nil
	case '>':
		p.advance()
	default:
		return nil, p.errf("unterminated start tag <%s", name)
	}
	// Content until matching end tag.
	for {
		if p.eof() {
			return nil, p.errf("unexpected end of input inside element <%s>", name)
		}
		if p.hasPrefix("</") {
			p.advanceN(2)
			ename, err := p.parseName()
			if err != nil {
				return nil, err
			}
			if ename != name {
				return nil, p.errf("mismatched end tag </%s>, expected </%s>", ename, name)
			}
			p.skipWS()
			if p.peek() != '>' {
				return nil, p.errf("unterminated end tag </%s", ename)
			}
			p.advance()
			return el, nil
		}
		child, err := p.parseContentItem()
		if err != nil {
			return nil, err
		}
		if child != nil {
			el.AppendChild(child)
		}
	}
}

// parseContentItem parses one unit of element content: a child element,
// text run, CDATA section, comment or PI. It returns nil for items that
// produce no node (currently none, but kept for future skips).
func (p *parser) parseContentItem() (*Node, error) {
	switch {
	case p.hasPrefix("<!--"):
		start := p.pos + 4
		idx := strings.Index(p.src[start:], "-->")
		if idx < 0 {
			return nil, p.errf("unterminated comment")
		}
		text := p.src[start : start+idx]
		p.skipUntil("-->")
		return NewComment(text), nil
	case p.hasPrefix("<![CDATA["):
		start := p.pos + 9
		idx := strings.Index(p.src[start:], "]]>")
		if idx < 0 {
			return nil, p.errf("unterminated CDATA section")
		}
		text := p.src[start : start+idx]
		p.skipUntil("]]>")
		return NewText(text), nil
	case p.hasPrefix("<?"):
		start := p.pos + 2
		idx := strings.Index(p.src[start:], "?>")
		if idx < 0 {
			return nil, p.errf("unterminated processing instruction")
		}
		body := p.src[start : start+idx]
		p.skipUntil("?>")
		target, rest, _ := strings.Cut(body, " ")
		return &Node{Kind: ProcInstNode, Label: target, Text: rest}, nil
	case p.hasPrefix("</"):
		return nil, p.errf("unexpected end tag")
	case p.peek() == '<':
		return p.parseElement()
	default:
		return p.parseText()
	}
}

// parseText reads character data up to the next '<'. A run without
// entity references is returned as a slice of the input.
func (p *parser) parseText() (*Node, error) {
	end := len(p.src)
	if i := strings.IndexByte(p.src[p.pos:], '<'); i >= 0 {
		end = p.pos + i
	}
	amp := strings.IndexByte(p.src[p.pos:end], '&')
	if amp < 0 {
		text := p.src[p.pos:end]
		p.skipTo(end)
		return NewText(text), nil
	}
	var sb strings.Builder
	for amp >= 0 {
		sb.WriteString(p.src[p.pos : p.pos+amp])
		p.skipTo(p.pos + amp)
		r, err := p.parseEntity()
		if err != nil {
			return nil, err
		}
		sb.WriteString(r)
		// No reference that decodes spans a '<', so p.pos <= end.
		amp = strings.IndexByte(p.src[p.pos:end], '&')
	}
	sb.WriteString(p.src[p.pos:end])
	p.skipTo(end)
	return NewText(sb.String()), nil
}

// parseAttrValue reads a quoted attribute value. A value without
// entity references is returned as a slice of the input.
func (p *parser) parseAttrValue() (string, error) {
	quote := p.peek()
	if quote != '"' && quote != '\'' {
		return "", p.errf("expected quoted attribute value")
	}
	p.advance()
	var sb strings.Builder // holds the value once a reference is decoded
	for {
		// The run ends at the first quote, '&' or '<'.
		run := p.src[p.pos:]
		i := 0
		for i < len(run) && run[i] != quote && run[i] != '&' && run[i] != '<' {
			i++
		}
		if i == len(run) {
			p.skipTo(len(p.src))
			return "", p.errf("unterminated attribute value")
		}
		switch run[i] {
		case quote:
			p.skipTo(p.pos + i + 1)
			if sb.Len() == 0 {
				return run[:i], nil
			}
			sb.WriteString(run[:i])
			return sb.String(), nil
		case '&':
			sb.WriteString(run[:i])
			p.skipTo(p.pos + i)
			r, err := p.parseEntity()
			if err != nil {
				return "", err
			}
			sb.WriteString(r)
		default:
			p.skipTo(p.pos + i)
			return "", p.errf("'<' not allowed in attribute value")
		}
	}
}

// parseEntity decodes an entity or character reference starting at '&'.
func (p *parser) parseEntity() (string, error) {
	p.advance() // consume '&'
	end := strings.IndexByte(p.src[p.pos:], ';')
	if end < 0 || end > 12 {
		return "", p.errf("unterminated entity reference")
	}
	name := p.src[p.pos : p.pos+end]
	p.advanceN(end + 1)
	switch name {
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "amp":
		return "&", nil
	case "quot":
		return `"`, nil
	case "apos":
		return "'", nil
	}
	if strings.HasPrefix(name, "#x") || strings.HasPrefix(name, "#X") {
		v, err := strconv.ParseUint(name[2:], 16, 32)
		if err != nil {
			return "", p.errf("bad character reference &%s;", name)
		}
		return string(rune(v)), nil
	}
	if strings.HasPrefix(name, "#") {
		v, err := strconv.ParseUint(name[1:], 10, 32)
		if err != nil {
			return "", p.errf("bad character reference &%s;", name)
		}
		return string(rune(v)), nil
	}
	return "", p.errf("unknown entity &%s;", name)
}
