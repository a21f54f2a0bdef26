package xmltree

import (
	"strings"
)

// Serialize renders the subtree rooted at n as compact XML (no added
// whitespace). Attribute order follows the node's attribute slice.
func Serialize(n *Node) string {
	var sb strings.Builder
	writeNode(&sb, n, -1, 0)
	return sb.String()
}

// SerializeIndent renders the subtree with two-space indentation,
// emitting text nodes inline when an element has only text content.
func SerializeIndent(n *Node) string {
	var sb strings.Builder
	writeNode(&sb, n, 0, 0)
	sb.WriteByte('\n')
	return sb.String()
}

// SerializeForest renders a sequence of trees (a stream batch or
// parameter list) as concatenated compact XML.
func SerializeForest(nodes []*Node) string {
	var sb strings.Builder
	for _, n := range nodes {
		writeNode(&sb, n, -1, 0)
	}
	return sb.String()
}

// indentWidth is the serialization indentation unit.
const indentWidth = 2

func writeIndent(sb *strings.Builder, depth int) {
	for i := 0; i < depth*indentWidth; i++ {
		sb.WriteByte(' ')
	}
}

// writeNode writes n. indentBase < 0 means compact mode; otherwise the
// node is written at the given depth with pretty-printing.
func writeNode(sb *strings.Builder, n *Node, indentBase, depth int) {
	pretty := indentBase >= 0
	switch n.Kind {
	case TextNode:
		escapeText(sb, n.Text)
		return
	case CommentNode:
		if pretty {
			writeIndent(sb, depth)
		}
		sb.WriteString("<!--")
		sb.WriteString(n.Text)
		sb.WriteString("-->")
		if pretty {
			sb.WriteByte('\n')
		}
		return
	case ProcInstNode:
		if pretty {
			writeIndent(sb, depth)
		}
		sb.WriteString("<?")
		sb.WriteString(n.Label)
		if n.Text != "" {
			sb.WriteByte(' ')
			sb.WriteString(n.Text)
		}
		sb.WriteString("?>")
		if pretty {
			sb.WriteByte('\n')
		}
		return
	}

	if pretty {
		writeIndent(sb, depth)
	}
	sb.WriteByte('<')
	sb.WriteString(n.Label)
	for _, a := range n.Attrs {
		sb.WriteByte(' ')
		sb.WriteString(a.Name)
		sb.WriteString(`="`)
		escapeAttr(sb, a.Value)
		sb.WriteByte('"')
	}
	if len(n.Children) == 0 {
		sb.WriteString("/>")
		if pretty {
			sb.WriteByte('\n')
		}
		return
	}
	sb.WriteByte('>')

	if !pretty {
		for _, c := range n.Children {
			writeNode(sb, c, -1, 0)
		}
		sb.WriteString("</")
		sb.WriteString(n.Label)
		sb.WriteByte('>')
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
			escapeText(sb, c.Text)
		}
		sb.WriteString("</")
		sb.WriteString(n.Label)
		sb.WriteByte('>')
		sb.WriteByte('\n')
		return
	}
	sb.WriteByte('\n')
	for _, c := range n.Children {
		if c.Kind == TextNode {
			if strings.TrimSpace(c.Text) == "" {
				continue
			}
			writeIndent(sb, depth+1)
			escapeText(sb, c.Text)
			sb.WriteByte('\n')
			continue
		}
		writeNode(sb, c, indentBase, depth+1)
	}
	writeIndent(sb, depth)
	sb.WriteString("</")
	sb.WriteString(n.Label)
	sb.WriteByte('>')
	sb.WriteByte('\n')
}

func escapeText(sb *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			sb.WriteString("&lt;")
		case '>':
			sb.WriteString("&gt;")
		case '&':
			sb.WriteString("&amp;")
		default:
			sb.WriteByte(s[i])
		}
	}
}

func escapeAttr(sb *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			sb.WriteString("&lt;")
		case '&':
			sb.WriteString("&amp;")
		case '"':
			sb.WriteString("&quot;")
		default:
			sb.WriteByte(s[i])
		}
	}
}

// escapedTextLen and escapedAttrLen return how many bytes escapeText
// and escapeAttr write for s, without writing them.
func escapedTextLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			n += len("&lt;") - 1
		case '>':
			n += len("&gt;") - 1
		case '&':
			n += len("&amp;") - 1
		}
	}
	return n
}

func escapedAttrLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			n += len("&lt;") - 1
		case '&':
			n += len("&amp;") - 1
		case '"':
			n += len("&quot;") - 1
		}
	}
	return n
}
