package xmltree

import (
	"strings"
)

// Writer is what the serializer writes to: a *strings.Builder, a
// *bufio.Writer or a *bytes.Buffer. Errors are not checked per call; a
// writer that can fail must keep its first error, as bufio.Writer
// does, for the caller to read back.
type Writer interface {
	WriteByte(c byte) error
	WriteString(s string) (int, error)
}

// Serialize renders the subtree rooted at n as compact XML (no added
// whitespace). Attribute order follows the node's attribute slice.
func Serialize(n *Node) string {
	var sb strings.Builder
	serializer{w: &sb, esc: &plainEscapes, indent: -1}.node(n, 0)
	return sb.String()
}

// SerializeIndent renders the subtree with two-space indentation,
// emitting text nodes inline when an element has only text content.
func SerializeIndent(n *Node) string {
	var sb strings.Builder
	serializer{w: &sb, esc: &plainEscapes}.node(n, 0)
	sb.WriteByte('\n')
	return sb.String()
}

// SerializeForest renders a sequence of trees (a stream batch or
// parameter list) as concatenated compact XML.
func SerializeForest(nodes []*Node) string {
	var sb strings.Builder
	s := serializer{w: &sb, esc: &plainEscapes, indent: -1}
	for _, n := range nodes {
		s.node(n, 0)
	}
	return sb.String()
}

// WriteLine writes the subtree rooted at n to w as compact XML that
// fits on one line: Serialize's output, except that CR and LF in text
// and attribute values are written as &#13; and &#10;, which Parse
// decodes back. Line-framed transports write every tree this way.
func WriteLine(w Writer, n *Node) {
	serializer{w: w, esc: &lineEscapes, indent: -1}.node(n, 0)
}

// SerializeLine is WriteLine into a string.
func SerializeLine(n *Node) string {
	var sb strings.Builder
	WriteLine(&sb, n)
	return sb.String()
}

// indentWidth is the serialization indentation unit.
const indentWidth = 2

// escapes holds, for text and for attribute values, the reference
// written in place of each byte; "" writes the byte itself.
type escapes struct {
	text, attr [256]string
}

var (
	plainEscapes = newEscapes(false)
	lineEscapes  = newEscapes(true)
)

func newEscapes(line bool) escapes {
	var e escapes
	e.text['<'], e.text['>'], e.text['&'] = "&lt;", "&gt;", "&amp;"
	e.attr['<'], e.attr['&'], e.attr['"'] = "&lt;", "&amp;", "&quot;"
	if line {
		e.text['\r'], e.text['\n'] = "&#13;", "&#10;"
		e.attr['\r'], e.attr['\n'] = "&#13;", "&#10;"
	}
	return e
}

// serializer writes trees to w. indent < 0 means compact mode;
// otherwise nodes are pretty-printed at their depth.
type serializer struct {
	w      Writer
	esc    *escapes
	indent int
}

func (s serializer) writeIndent(depth int) {
	for i := 0; i < depth*indentWidth; i++ {
		s.w.WriteByte(' ')
	}
}

func (s serializer) node(n *Node, depth int) {
	w := s.w
	pretty := s.indent >= 0
	switch n.Kind {
	case TextNode:
		escape(w, n.Text, &s.esc.text)
		return
	case CommentNode:
		if pretty {
			s.writeIndent(depth)
		}
		w.WriteString("<!--")
		w.WriteString(n.Text)
		w.WriteString("-->")
		if pretty {
			w.WriteByte('\n')
		}
		return
	case ProcInstNode:
		if pretty {
			s.writeIndent(depth)
		}
		w.WriteString("<?")
		w.WriteString(n.Label)
		if n.Text != "" {
			w.WriteByte(' ')
			w.WriteString(n.Text)
		}
		w.WriteString("?>")
		if pretty {
			w.WriteByte('\n')
		}
		return
	}

	if pretty {
		s.writeIndent(depth)
	}
	w.WriteByte('<')
	w.WriteString(n.Label)
	for _, a := range n.Attrs {
		w.WriteByte(' ')
		w.WriteString(a.Name)
		w.WriteString(`="`)
		escape(w, a.Value, &s.esc.attr)
		w.WriteByte('"')
	}
	if len(n.Children) == 0 {
		w.WriteString("/>")
		if pretty {
			w.WriteByte('\n')
		}
		return
	}
	w.WriteByte('>')

	if !pretty {
		for _, c := range n.Children {
			s.node(c, 0)
		}
		s.endTag(n)
		return
	}

	// Pretty mode: if content is text-only, keep it inline.
	textOnly := true
	for _, c := range n.Children {
		if c.Kind != TextNode {
			textOnly = false
			break
		}
	}
	if textOnly {
		for _, c := range n.Children {
			escape(w, c.Text, &s.esc.text)
		}
		s.endTag(n)
		w.WriteByte('\n')
		return
	}
	w.WriteByte('\n')
	for _, c := range n.Children {
		if c.Kind == TextNode {
			if strings.TrimSpace(c.Text) == "" {
				continue
			}
			s.writeIndent(depth + 1)
			escape(w, c.Text, &s.esc.text)
			w.WriteByte('\n')
			continue
		}
		s.node(c, depth+1)
	}
	s.writeIndent(depth)
	s.endTag(n)
	w.WriteByte('\n')
}

func (s serializer) endTag(n *Node) {
	s.w.WriteString("</")
	s.w.WriteString(n.Label)
	s.w.WriteByte('>')
}

// escape writes s with each byte that table maps replaced by its
// reference: one WriteString per unescaped run.
func escape(w Writer, s string, table *[256]string) {
	last := 0
	for i := 0; i < len(s); i++ {
		if ref := table[s[i]]; ref != "" {
			if last < i {
				w.WriteString(s[last:i])
			}
			w.WriteString(ref)
			last = i + 1
		}
	}
	if last < len(s) {
		w.WriteString(s[last:])
	}
}

// escapedLen returns how many bytes escape writes for s, without
// writing them.
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
