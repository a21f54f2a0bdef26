// Package xmltree implements the XML data model of the AXML framework:
// unranked, unordered, labelled trees in which every node carries an
// identifier (paper §2.1). It provides a from-scratch parser and
// serializer, structural mutation helpers that maintain parent links,
// deep copies, and canonical forms used for the unordered tree
// equivalence that underpins document equivalence (paper §2.3).
//
// Sibling order is preserved for storage and serialization, but all
// equality notions exposed by this package ignore it, matching the
// paper's unordered data model.
package xmltree

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates the node variants of the data model.
type Kind uint8

const (
	// ElementNode is an internal (or leaf) node with a label from L.
	ElementNode Kind = iota
	// TextNode is a leaf holding character data.
	TextNode
	// CommentNode holds an XML comment; ignored by equivalence.
	CommentNode
	// ProcInstNode holds a processing instruction; ignored by equivalence.
	ProcInstNode
	// AttrNode is a transient node synthesized by the XPath attribute
	// axis: Label is the attribute name, Text its value, Parent the
	// owning element. AttrNodes never appear in stored trees.
	AttrNode
)

func (k Kind) String() string {
	switch k {
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case ProcInstNode:
		return "pi"
	case AttrNode:
		return "attribute"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// NodeID identifies a node within one peer. The zero value means
// "unassigned"; parsers and builders leave IDs at zero unless an IDGen
// is supplied, and peers assign IDs on document installation.
type NodeID uint64

// Attr is a name/value attribute of an element node.
type Attr struct {
	Name  string
	Value string
}

// Node is one node of an XML tree. The zero value is an empty element
// node with no label.
//
// Invariants maintained by the mutation methods:
//   - n.Children[i].Parent == n for all i
//   - Text/Comment/ProcInst nodes have no children and no attributes.
type Node struct {
	ID       NodeID
	Kind     Kind
	Label    string // element name, or PI target
	Text     string // character data for Text/Comment/ProcInst
	Attrs    []Attr
	Children []*Node
	Parent   *Node
}

// NewElement returns a fresh element node with the given label.
func NewElement(label string) *Node { return &Node{Kind: ElementNode, Label: label} }

// NewText returns a fresh text node with the given character data.
func NewText(text string) *Node { return &Node{Kind: TextNode, Text: text} }

// NewComment returns a fresh comment node.
func NewComment(text string) *Node { return &Node{Kind: CommentNode, Text: text} }

// IsElement reports whether n is an element node.
func (n *Node) IsElement() bool { return n != nil && n.Kind == ElementNode }

// IsText reports whether n is a text node.
func (n *Node) IsText() bool { return n != nil && n.Kind == TextNode }

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets (or replaces) the named attribute.
func (n *Node) SetAttr(name, value string) {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// RemoveAttr deletes the named attribute if present.
func (n *Node) RemoveAttr(name string) {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return
		}
	}
}

// AppendChild adds c as the last child of n and sets c.Parent.
// It panics if n cannot have children (non-element) or if c is nil,
// because both indicate a programming error, not a data error.
func (n *Node) AppendChild(c *Node) {
	if c == nil {
		panic("xmltree: AppendChild(nil)")
	}
	if n.Kind != ElementNode {
		panic("xmltree: AppendChild on non-element node")
	}
	c.Parent = n
	n.Children = append(n.Children, c)
}

// InsertChildAt inserts c at position i among n's children (0 ≤ i ≤ len).
func (n *Node) InsertChildAt(i int, c *Node) {
	if c == nil {
		panic("xmltree: InsertChildAt(nil)")
	}
	if n.Kind != ElementNode {
		panic("xmltree: InsertChildAt on non-element node")
	}
	if i < 0 || i > len(n.Children) {
		panic(fmt.Sprintf("xmltree: InsertChildAt index %d out of range [0,%d]", i, len(n.Children)))
	}
	c.Parent = n
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = c
}

// InsertAfter inserts sibling newer immediately after child ref of n.
// It returns an error if ref is not a child of n. This implements the
// AXML placement of service results "as a sibling of the sc node"
// (paper §2.2 step 3).
func (n *Node) InsertAfter(ref, newer *Node) error {
	for i, c := range n.Children {
		if c == ref {
			n.InsertChildAt(i+1, newer)
			return nil
		}
	}
	return fmt.Errorf("xmltree: InsertAfter: reference node not a child of %q", n.Label)
}

// RemoveChild detaches c from n. It returns false if c is not a child of n.
func (n *Node) RemoveChild(c *Node) bool {
	for i, ch := range n.Children {
		if ch == c {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			c.Parent = nil
			return true
		}
	}
	return false
}

// ReplaceChild swaps old for newer among n's children, preserving position.
func (n *Node) ReplaceChild(old, newer *Node) bool {
	for i, ch := range n.Children {
		if ch == old {
			newer.Parent = n
			n.Children[i] = newer
			old.Parent = nil
			return true
		}
	}
	return false
}

// Detach removes n from its parent, if any.
func (n *Node) Detach() {
	if n.Parent != nil {
		n.Parent.RemoveChild(n)
	}
}

// ChildElements returns the element children of n, in document order.
func (n *Node) ChildElements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// FirstChildElement returns the first element child labelled label, or nil.
func (n *Node) FirstChildElement(label string) *Node {
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.Label == label {
			return c
		}
	}
	return nil
}

// ChildElementsByLabel returns all element children labelled label.
func (n *Node) ChildElementsByLabel(label string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.Label == label {
			out = append(out, c)
		}
	}
	return out
}

// TextContent concatenates all descendant text, in document order.
// For a text node it is the node's own text.
func (n *Node) TextContent() string {
	switch n.Kind {
	case TextNode, AttrNode:
		return n.Text
	case CommentNode, ProcInstNode:
		return ""
	}
	// The common leaf element <price>30</price> needs no builder.
	if len(n.Children) == 1 && n.Children[0].Kind == TextNode {
		return n.Children[0].Text
	}
	var sb strings.Builder
	n.appendText(&sb)
	return sb.String()
}

func (n *Node) appendText(sb *strings.Builder) {
	for _, c := range n.Children {
		switch c.Kind {
		case TextNode:
			sb.WriteString(c.Text)
		case ElementNode:
			c.appendText(sb)
		}
	}
}

// Walk visits n and every descendant in document order. If f returns
// false the subtree below the current node is skipped.
func (n *Node) Walk(f func(*Node) bool) {
	if n == nil {
		return
	}
	if !f(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// FindAll returns every descendant-or-self element with the given label,
// in document order.
func (n *Node) FindAll(label string) []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if m.Kind == ElementNode && m.Label == label {
			out = append(out, m)
		}
		return true
	})
	return out
}

// FindByID returns the descendant-or-self node with the given ID, or nil.
func (n *Node) FindByID(id NodeID) *Node {
	var found *Node
	n.Walk(func(m *Node) bool {
		if found != nil {
			return false
		}
		if m.ID == id {
			found = m
			return false
		}
		return true
	})
	return found
}

// NodeCount returns the number of nodes in the subtree rooted at n.
func (n *Node) NodeCount() int {
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	return count
}

// Depth returns the height of the subtree rooted at n (single node = 1).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// ByteSize returns the serialized size of the subtree in bytes. It is
// the unit of data-transfer accounting in the network simulator: the
// cost of shipping t between peers is ByteSize(t) against link bandwidth.
//
// It counts what Serialize would write without writing it, and must
// stay equal to the length of Serialize(n): the case analysis below is
// writeNode's compact mode, and a change to one is a change to both
// (TestByteSizeEqualsSerialize holds them together).
func (n *Node) ByteSize() int {
	switch n.Kind {
	case TextNode:
		return escapedTextLen(n.Text)
	case CommentNode:
		return len("<!--") + len(n.Text) + len("-->")
	case ProcInstNode:
		size := len("<?") + len(n.Label) + len("?>")
		if n.Text != "" {
			size += len(" ") + len(n.Text)
		}
		return size
	}
	size := len("<") + len(n.Label)
	for _, a := range n.Attrs {
		size += len(" ") + len(a.Name) + len(`="`) + escapedAttrLen(a.Value) + len(`"`)
	}
	if len(n.Children) == 0 {
		return size + len("/>")
	}
	size += len(">")
	for _, c := range n.Children {
		size += c.ByteSize()
	}
	return size + len("</") + len(n.Label) + len(">")
}

// Root returns the topmost ancestor of n.
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// Path returns a human-readable /label/label position of n for messages.
func (n *Node) Path() string {
	if n == nil {
		return ""
	}
	var parts []string
	for m := n; m != nil; m = m.Parent {
		switch m.Kind {
		case ElementNode:
			parts = append(parts, m.Label)
		case TextNode:
			parts = append(parts, "text()")
		}
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return "/" + strings.Join(parts, "/")
}

// sortAttrs orders attributes by name; used by serialization of
// canonical forms and by the builder for deterministic output.
func sortAttrs(attrs []Attr) {
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
}

// IDGen allocates fresh node identifiers. Implementations must be safe
// for concurrent use if shared between goroutines.
type IDGen interface {
	NextID() NodeID
}

// SeqIDGen is a simple sequential IDGen. The zero value starts at 1.
// It is not safe for concurrent use; peers wrap it in their own lock.
type SeqIDGen struct {
	last NodeID
}

// NextID returns the next identifier in sequence.
func (g *SeqIDGen) NextID() NodeID {
	g.last++
	return g.last
}

// Commit says what one committed mutation of a document touched, in
// node identifiers only — it never retains a node, so holding one pins
// no epoch. Spine lists the nodes the store cloned, from the document
// root down to the node whose child list changed; Removed and Added are
// the roots of the subtrees dropped from and put under that last node
// (an insert sets Added, a delete Removed, a replace both). A commit
// with neither names no subtree — the whole child list was swapped, or
// nothing structural is known — and bounds nothing: its consumer must
// re-derive from the document.
//
// Pos[i] is where Spine[i+1] sat among the children of Spine[i] in the
// tree the commit published. Later commits may have shifted it, so it
// is a place to look first when descending a later tree along the
// spine, never an address.
type Commit struct {
	Epoch          uint64
	Spine          []NodeID
	Pos            []int
	Removed, Added NodeID
}

// AssignIDs walks the subtree and gives every node with a zero ID a
// fresh identifier from g. Existing non-zero IDs are preserved.
func AssignIDs(n *Node, g IDGen) {
	n.Walk(func(m *Node) bool {
		if m.ID == 0 {
			m.ID = g.NextID()
		}
		return true
	})
}
