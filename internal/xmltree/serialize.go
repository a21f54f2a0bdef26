package xmltree

import (
	"bytes"
	"errors"
	"strings"
)

// Serialize renders the subtree rooted at n as compact XML (no added
// whitespace). Attribute order follows the node's attribute slice.
func Serialize(n *Node) string {
	return string(Append(make([]byte, 0, n.ByteSize()), n))
}

// Append appends Serialize's output for n to dst and returns the
// extended buffer.
func Append(dst []byte, n *Node) []byte {
	return appendNode(dst, n, plainEscapes)
}

// ErrLineBreak refuses a tree whose comment or processing instruction holds a CR or LF.
var ErrLineBreak = errors.New("xmltree: a comment or processing instruction holds a line break")

// AppendLine appends to dst the subtree rooted at n as compact XML that
// fits on one line, and returns the extended buffer: Serialize's
// output, except that CR and LF in text and attribute values are
// written as &#13; and &#10;, which Parse decodes back, and a tree no
// line can carry leaves dst as it was. Line-framed transports use it.
func AppendLine(dst []byte, n *Node) ([]byte, error) {
	return AppendStored(dst, n, nil, true)
}

// A Budget is the room a published tree's owner grants to encodings kept
// on its nodes: Keep(size) charges size more bytes if they fit.
type Budget interface{ Keep(size int) bool }

// AppendStored is Append, or AppendLine when line is set, for n a node
// of a published tree, which no one writes again. Its first encoding is
// kept on n when it holds no CR or LF (so it is the line form too), n
// has an ID and b grants the room; every later encoding of n, or of a
// tree holding n, copies it and walks nothing below n.
func AppendStored(dst []byte, n *Node, b Budget, line bool) ([]byte, error) {
	if m := n.memo.Load(); m != nil {
		return append(dst, *m...), nil
	}
	start := len(dst)
	dst = appendNode(dst, n, plainEscapes)
	switch {
	case !bytes.ContainsAny(dst[start:], "\r\n"):
		if b != nil && n.ID != 0 && b.Keep(len(dst)-start) {
			kept := bytes.Clone(dst[start:])
			n.memo.CompareAndSwap(nil, &kept)
		}
	case line:
		if dst = appendNode(dst[:start], n, lineEscapes); bytes.ContainsAny(dst[start:], "\r\n") {
			return dst[:start], ErrLineBreak
		}
	}
	return dst, nil
}

// SerializeIndent renders the subtree with two-space indentation,
// emitting text nodes inline when an element has only text content.
func SerializeIndent(n *Node) string {
	return string(append(appendIndented(nil, n, 0), '\n'))
}

// indentWidth is the serialization indentation unit.
const indentWidth = 2

// escapes holds, for text and for attribute values, the reference
// appended in place of each byte; "" appends the byte itself.
type escapes struct {
	text, attr [256]string
}

var (
	plainEscapes = newEscapes(false)
	lineEscapes  = newEscapes(true)
)

func newEscapes(line bool) *escapes {
	var e escapes
	e.text['<'], e.text['>'], e.text['&'] = "&lt;", "&gt;", "&amp;"
	e.attr['<'], e.attr['&'], e.attr['"'] = "&lt;", "&amp;", "&quot;"
	if line {
		e.text['\r'], e.text['\n'] = "&#13;", "&#10;"
		e.attr['\r'], e.attr['\n'] = "&#13;", "&#10;"
	}
	return &e
}

// appendNode is the compact encoder: it appends the subtree rooted at
// n to dst, copying the bytes kept on any node it meets. ByteSize
// counts what it appends under plainEscapes.
func appendNode(dst []byte, n *Node, esc *escapes) []byte {
	if m := n.memo.Load(); m != nil {
		return append(dst, *m...)
	}
	switch n.Kind {
	case TextNode:
		return appendEscaped(dst, n.Text, &esc.text)
	case CommentNode:
		dst = append(dst, "<!--"...)
		dst = append(dst, n.Text...)
		return append(dst, "-->"...)
	case ProcInstNode:
		dst = append(dst, "<?"...)
		dst = append(dst, n.Label...)
		if n.Text != "" {
			dst = append(dst, ' ')
			dst = append(dst, n.Text...)
		}
		return append(dst, "?>"...)
	}
	dst = appendTagOpen(dst, n, esc)
	if len(n.Children) == 0 {
		return append(dst, "/>"...)
	}
	dst = append(dst, '>')
	for _, c := range n.Children {
		dst = appendNode(dst, c, esc)
	}
	return appendEndTag(dst, n)
}

// appendTagOpen appends an element's start tag up to its closing '>'
// or "/>".
func appendTagOpen(dst []byte, n *Node, esc *escapes) []byte {
	dst = append(dst, '<')
	dst = append(dst, n.Label...)
	for _, a := range n.Attrs {
		dst = append(dst, ' ')
		dst = append(dst, a.Name...)
		dst = append(dst, `="`...)
		dst = appendEscaped(dst, a.Value, &esc.attr)
		dst = append(dst, '"')
	}
	return dst
}

func appendEndTag(dst []byte, n *Node) []byte {
	dst = append(dst, "</"...)
	dst = append(dst, n.Label...)
	return append(dst, '>')
}

// appendIndented is the pretty printer: n at depth, one line per
// element or other markup, an element holding only text on the line of
// its tags.
func appendIndented(dst []byte, n *Node, depth int) []byte {
	if n.Kind == TextNode {
		return appendEscaped(dst, n.Text, &plainEscapes.text)
	}
	dst = appendIndent(dst, depth)
	if len(n.Children) == 0 {
		return append(appendNode(dst, n, plainEscapes), '\n')
	}
	dst = append(appendTagOpen(dst, n, plainEscapes), '>')
	textOnly := true
	for _, c := range n.Children {
		if c.Kind != TextNode {
			textOnly = false
			break
		}
	}
	if textOnly {
		for _, c := range n.Children {
			dst = appendEscaped(dst, c.Text, &plainEscapes.text)
		}
		return append(appendEndTag(dst, n), '\n')
	}
	dst = append(dst, '\n')
	for _, c := range n.Children {
		switch {
		case c.Kind != TextNode:
			dst = appendIndented(dst, c, depth+1)
		case strings.TrimSpace(c.Text) != "":
			dst = appendEscaped(appendIndent(dst, depth+1), c.Text, &plainEscapes.text)
			dst = append(dst, '\n')
		}
	}
	dst = appendIndent(dst, depth)
	return append(appendEndTag(dst, n), '\n')
}

func appendIndent(dst []byte, depth int) []byte {
	for i := 0; i < depth*indentWidth; i++ {
		dst = append(dst, ' ')
	}
	return dst
}

// appendEscaped appends s with each byte that table maps replaced by
// its reference, copying the runs between them whole.
func appendEscaped(dst []byte, s string, table *[256]string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		if ref := table[s[i]]; ref != "" {
			dst = append(dst, s[last:i]...)
			dst = append(dst, ref...)
			last = i + 1
		}
	}
	return append(dst, s[last:]...)
}

// escapedLen returns how many bytes appendEscaped appends for s.
func escapedLen(s string, table *[256]string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		if ref := table[s[i]]; ref != "" {
			n += len(ref) - 1
		}
	}
	return n
}

// escapedTextLen and escapedAttrLen return how many bytes Serialize
// writes for a text or attribute value s.
func escapedTextLen(s string) int { return escapedLen(s, &plainEscapes.text) }

func escapedAttrLen(s string) int { return escapedLen(s, &plainEscapes.attr) }
