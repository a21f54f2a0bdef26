package xmltree

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
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
// character references to XML 1.0 characters, CDATA sections,
// comments, processing instructions, and a skipped DOCTYPE
// declaration. Namespaces are not interpreted: a prefixed name is just
// a label containing ':'.
//
// The parser makes one pass over the input. Text and attribute values
// without references are slices of it. Nodes, child lists and
// attribute lists are carved from blocks each parse allocates for
// itself, sized from the stretch of input they will hold; every child
// and attribute slice is exactly sized (len == cap), so appending to
// one never reaches another node's.
func Parse(input string) (*Node, error) {
	p := parser{src: input}
	p.skipMisc(true)
	if p.at(p.pos) != '<' {
		return nil, p.errf("expected '<', found %s", p.found(p.pos))
	}
	root, open, err := p.startTag()
	if err != nil {
		return nil, err
	}
	if open {
		if _, err := p.content(root); err != nil {
			return nil, err
		}
	}
	p.skipMisc(false)
	if p.pos < len(p.src) {
		return nil, p.errf("trailing content after document element")
	}
	return root, nil
}

// ParseFragment parses a sequence of top-level nodes (a forest). It is
// used for streams of trees and for service-call parameter lists.
// Top-level text that is only whitespace is dropped.
func ParseFragment(input string) ([]*Node, error) {
	p := parser{src: input}
	return p.content(nil)
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(input string) *Node {
	n, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return n
}

// blockInput is the stretch of input, in bytes, that one node or
// attribute block is sized from. Blocks belong to one parse and hold
// about the nodes of that stretch, so a row kept from its own parse
// pins no more than that parse, and a subtree kept from a large
// document pins the blocks of its stretch, not every node parsed.
const blockInput = 16 << 10

type parser struct {
	src string
	pos int

	// Unused tails of the current blocks.
	nodes []Node
	kids  []*Node
	attrs []Attr

	buf []byte // a value being decoded from references
}

// at returns the byte at offset i, or 0 past the end of the input.
func (p *parser) at(i int) byte {
	if i < len(p.src) {
		return p.src[i]
	}
	return 0
}

// found names what stands at offset i, for an error message: its byte,
// quoted, or the end of the input.
func (p *parser) found(i int) string {
	if i >= len(p.src) {
		return "end of input"
	}
	return strconv.Quote(p.src[i : i+1])
}

// errf reports an error at the current offset. Lines and columns are
// counted only here: a line ends at each '\n', and a column counts
// bytes from 1.
func (p *parser) errf(format string, args ...any) error {
	before := p.src[:p.pos]
	return &ParseError{
		Line: 1 + strings.Count(before, "\n"),
		Col:  p.pos - strings.LastIndexByte(before, '\n'),
		Msg:  fmt.Sprintf(format, args...),
	}
}

func (p *parser) skipWS() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

// skipMisc consumes whitespace, comments and PIs around the document
// element, and before it (prolog) a DOCTYPE declaration.
func (p *parser) skipMisc(prolog bool) {
	for {
		p.skipWS()
		rest := p.src[p.pos:]
		switch {
		case strings.HasPrefix(rest, "<?"):
			p.skipPast(rest, "?>")
		case strings.HasPrefix(rest, "<!--"):
			p.skipPast(rest, "-->")
		case prolog && strings.HasPrefix(rest, "<!DOCTYPE"):
			p.skipDoctype()
		default:
			return
		}
	}
}

// skipPast moves past the first end in rest (the input from p.pos), or
// to the end of the input without one.
func (p *parser) skipPast(rest, end string) {
	if i := strings.Index(rest, end); i >= 0 {
		p.pos += i + len(end)
	} else {
		p.pos = len(p.src)
	}
}

// skipDoctype consumes a DOCTYPE declaration, balancing an optional
// internal subset in brackets.
func (p *parser) skipDoctype() {
	depth := 0
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		p.pos++
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

const (
	nameStart = 1 << iota
	nameChar
)

// nameTable classifies the bytes of names: every byte from 0x80 up is
// a name byte, so UTF-8 names pass whole.
var nameTable = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		if c == '_' || c == ':' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= 0x80 {
			t[c] = nameStart | nameChar
		} else if c == '-' || c == '.' || c >= '0' && c <= '9' {
			t[c] = nameChar
		}
	}
	return t
}()

func (p *parser) name() (string, error) {
	start := p.pos
	if nameTable[p.at(start)]&nameStart == 0 {
		return "", p.errf("expected name, found %s", p.found(start))
	}
	i := start + 1
	for i < len(p.src) && nameTable[p.src[i]]&nameChar != 0 {
		i++
	}
	p.pos = i
	return p.src[start:i], nil
}

// node takes a fresh node from the node block.
func (p *parser) node(kind Kind) *Node {
	if len(p.nodes) == 0 {
		end := min(len(p.src), p.pos+blockInput)
		p.nodes = make([]Node, max(1, nodeEstimate(p.src[p.pos:end])))
	}
	n := &p.nodes[0]
	p.nodes = p.nodes[1:]
	n.Kind = kind
	return n
}

// nodeEstimate is how many nodes s parses to when every text run ends
// at an end tag, as in data-oriented XML: one per '<' that starts a
// tag other than an end tag, and one per end tag with text before it.
func nodeEstimate(s string) int {
	n := 0
	for i := strings.IndexByte(s, '<'); i >= 0; {
		if i+1 == len(s) || s[i+1] != '/' || i > 0 && s[i-1] != '>' {
			n++
		}
		j := strings.IndexByte(s[i+1:], '<')
		if j < 0 {
			break
		}
		i += 1 + j
	}
	return n
}

// children copies kids into an exactly-sized slice carved from the
// child block. A new block holds, besides kids, a slot for every node
// still waiting for its parent to close (pending) and for every unused
// node of the node block: the child slots the parse will need before
// it takes more nodes.
func (p *parser) children(kids []*Node, pending int) []*Node {
	k := len(kids)
	if k == 0 {
		return nil
	}
	if len(p.kids) < k {
		p.kids = make([]*Node, max(k, pending+len(p.nodes)))
	}
	s := p.kids[:k:k]
	copy(s, kids)
	p.kids = p.kids[k:]
	return s
}

// startTag parses a start tag at p.pos ('<') into an element,
// reporting whether the element is open (not empty-element).
func (p *parser) startTag() (el *Node, open bool, err error) {
	tag := p.pos
	el = p.node(ElementNode)
	p.pos++
	name, err := p.name()
	if err != nil {
		return nil, false, err
	}
	el.Label = name
	// The attributes are written straight into the attribute block,
	// from p.attrs[0] on.
	n := 0
	for {
		p.skipWS()
		c := p.at(p.pos)
		if c == '>' || c == '/' || c == 0 {
			break
		}
		aname, err := p.name()
		if err != nil {
			return nil, false, err
		}
		p.skipWS()
		if p.at(p.pos) != '=' {
			return nil, false, p.errf("expected '=' after attribute %q", aname)
		}
		p.pos++
		p.skipWS()
		aval, err := p.attrValue()
		if err != nil {
			return nil, false, err
		}
		for _, a := range p.attrs[:n] {
			if a.Name == aname {
				return nil, false, p.errf("duplicate attribute %q on element %q", aname, name)
			}
		}
		if n == len(p.attrs) {
			end := min(len(p.src), tag+blockInput)
			block := make([]Attr, max(n+1, strings.Count(p.src[tag:end], "=")))
			copy(block, p.attrs[:n])
			p.attrs = block
		}
		p.attrs[n] = Attr{Name: aname, Value: aval}
		n++
	}
	if n > 0 {
		el.Attrs = p.attrs[:n:n]
		p.attrs = p.attrs[n:]
	}
	switch p.at(p.pos) {
	case '/':
		p.pos++
		if p.at(p.pos) != '>' {
			return nil, false, p.errf("expected '>' after '/' in empty-element tag")
		}
		p.pos++
		return el, false, nil
	case '>':
		p.pos++
		return el, true, nil
	}
	return nil, false, p.errf("unterminated start tag <%s", name)
}

// content parses the content of the open element root through its end
// tag or, when root is nil, a forest through the end of the input,
// which it returns. Each node waits on a stack until its parent
// closes; then the parent's children leave the top of the stack as one
// exactly-sized slice.
func (p *parser) content(root *Node) ([]*Node, error) {
	var stackBuf [64]*Node
	var openBuf [16]int
	// stack[open[i]-1] is the i-th open element, stack[open[i]:] the
	// children it has so far.
	stack, open := stackBuf[:0], openBuf[:0]
	parent := root
	if root != nil {
		stack = append(stack, root)
		open = append(open, 1)
	}
	for {
		if p.pos >= len(p.src) {
			if parent != nil {
				return nil, p.errf("unexpected end of input inside element <%s>", parent.Label)
			}
			return forest(stack), nil
		}
		var n *Node
		var err error
		if p.src[p.pos] != '<' {
			n, err = p.text()
		} else {
			switch p.at(p.pos + 1) {
			case '/':
				if parent == nil {
					return nil, p.errf("unexpected end tag")
				}
				if err := p.endTag(parent.Label); err != nil {
					return nil, err
				}
				top := open[len(open)-1]
				parent.Children = p.children(stack[top:], len(stack)-1)
				stack, open = stack[:top], open[:len(open)-1]
				if len(open) == 0 {
					if root != nil {
						return nil, nil
					}
					parent = nil
				} else {
					parent = stack[open[len(open)-1]-1]
				}
				continue
			case '!':
				n, err = p.markup()
			case '?':
				n, err = p.procInst()
			default:
				var isOpen bool
				n, isOpen, err = p.startTag()
				if err == nil && isOpen {
					stack = append(stack, n)
					open = append(open, len(stack))
					parent = n
					continue
				}
			}
		}
		if err != nil {
			return nil, err
		}
		if n != nil {
			stack = append(stack, n)
		}
	}
}

// forest returns the top-level nodes of a fragment without its
// whitespace-only text.
func forest(top []*Node) []*Node {
	if len(top) == 0 {
		return nil
	}
	out := make([]*Node, 0, len(top))
	for _, n := range top {
		if n.Kind == TextNode && strings.TrimSpace(n.Text) == "" {
			continue
		}
		out = append(out, n)
	}
	return out
}

// endTag parses the end tag at p.pos ("</"), which must close want.
func (p *parser) endTag(want string) error {
	p.pos += 2
	name, err := p.name()
	if err != nil {
		return err
	}
	if name != want {
		return p.errf("mismatched end tag </%s>, expected </%s>", name, want)
	}
	p.skipWS()
	if p.at(p.pos) != '>' {
		return p.errf("unterminated end tag </%s", name)
	}
	p.pos++
	return nil
}

// markup parses the comment or CDATA section at p.pos ("<!"). An empty
// CDATA section holds no character data and makes no node. Anything
// else after "<!" is a start tag that fails on its name.
func (p *parser) markup() (*Node, error) {
	rest := p.src[p.pos:]
	switch {
	case strings.HasPrefix(rest, "<!--"):
		text, size, ok := delimited(rest, "<!--", "-->")
		if !ok {
			return nil, p.errf("unterminated comment")
		}
		n := p.node(CommentNode)
		n.Text = text
		p.pos += size
		return n, nil
	case strings.HasPrefix(rest, "<![CDATA["):
		text, size, ok := delimited(rest, "<![CDATA[", "]]>")
		if !ok {
			return nil, p.errf("unterminated CDATA section")
		}
		var n *Node
		if text != "" {
			n = p.node(TextNode)
			n.Text = text
		}
		p.pos += size
		return n, nil
	}
	n, _, err := p.startTag()
	return n, err
}

// procInst parses the processing instruction at p.pos ("<?").
func (p *parser) procInst() (*Node, error) {
	body, size, ok := delimited(p.src[p.pos:], "<?", "?>")
	if !ok {
		return nil, p.errf("unterminated processing instruction")
	}
	n := p.node(ProcInstNode)
	n.Label, n.Text, _ = strings.Cut(body, " ")
	p.pos += size
	return n, nil
}

// delimited splits the construct at the start of rest, open … end: it
// returns what lies between and the construct's length, or false when
// no end follows the opening.
func delimited(rest, open, end string) (string, int, bool) {
	i := strings.Index(rest[len(open):], end)
	if i < 0 {
		return "", 0, false
	}
	return rest[len(open) : len(open)+i], len(open) + i + len(end), true
}

// text parses the character data up to the next '<'.
func (p *parser) text() (*Node, error) {
	n := p.node(TextNode)
	end := len(p.src)
	if i := strings.IndexByte(p.src[p.pos:], '<'); i >= 0 {
		end = p.pos + i
	}
	n.Text = p.src[p.pos:end]
	if strings.IndexByte(n.Text, '&') >= 0 {
		p.buf = p.buf[:0]
		for {
			amp := strings.IndexByte(p.src[p.pos:end], '&')
			if amp < 0 {
				break
			}
			p.buf = append(p.buf, p.src[p.pos:p.pos+amp]...)
			p.pos += amp
			if err := p.reference(); err != nil {
				return nil, err
			}
			// No reference that decodes spans a '<', so p.pos <= end.
		}
		p.buf = append(p.buf, p.src[p.pos:end]...)
		n.Text = string(p.buf)
	}
	p.pos = end
	return n, nil
}

// attrValue parses the quoted attribute value at p.pos.
func (p *parser) attrValue() (string, error) {
	quote := p.at(p.pos)
	if quote != '"' && quote != '\'' {
		return "", p.errf("expected quoted attribute value")
	}
	p.pos++
	start := p.pos
	decoded := false // p.buf holds the value up to p.pos
	for i := p.pos; i < len(p.src); i++ {
		switch p.src[i] {
		case quote:
			v := p.src[start:i]
			if decoded {
				p.buf = append(p.buf, p.src[p.pos:i]...)
				v = string(p.buf)
			}
			p.pos = i + 1
			return v, nil
		case '&':
			if !decoded {
				p.buf, decoded = p.buf[:0], true
			}
			p.buf = append(p.buf, p.src[p.pos:i]...)
			p.pos = i
			if err := p.reference(); err != nil {
				return "", err
			}
			i = p.pos - 1
		case '<':
			p.pos = i
			return "", p.errf("'<' not allowed in attribute value")
		}
	}
	p.pos = len(p.src)
	return "", p.errf("unterminated attribute value")
}

// reference decodes the entity or character reference at p.pos ('&')
// onto p.buf and moves past it.
func (p *parser) reference() error {
	p.pos++ // '&'
	end := strings.IndexByte(p.src[p.pos:min(len(p.src), p.pos+13)], ';')
	if end < 0 {
		return p.errf("unterminated entity reference")
	}
	name := p.src[p.pos : p.pos+end]
	p.pos += end + 1
	var v uint64
	var err error
	switch {
	case name == "lt":
		v = '<'
	case name == "gt":
		v = '>'
	case name == "amp":
		v = '&'
	case name == "quot":
		v = '"'
	case name == "apos":
		v = '\''
	case strings.HasPrefix(name, "#x") || strings.HasPrefix(name, "#X"):
		v, err = strconv.ParseUint(name[2:], 16, 32)
	case strings.HasPrefix(name, "#"):
		v, err = strconv.ParseUint(name[1:], 10, 32)
	default:
		return p.errf("unknown entity &%s;", name)
	}
	if err != nil || !isChar(v) {
		return p.errf("bad character reference &%s;", name)
	}
	p.buf = utf8.AppendRune(p.buf, rune(v))
	return nil
}

// isChar reports whether v is in XML 1.0's Char production: a
// reference to anything else (NUL, most C0 controls, a surrogate,
// U+FFFE, U+FFFF or past U+10FFFF) names no character a document can
// hold.
func isChar(v uint64) bool {
	switch {
	case v == 0x9, v == 0xA, v == 0xD:
		return true
	case v < 0x20:
		return false
	case v <= 0xD7FF:
		return true
	case v < 0xE000:
		return false
	case v <= 0xFFFD:
		return true
	case v < 0x10000:
		return false
	}
	return v <= 0x10FFFF
}
