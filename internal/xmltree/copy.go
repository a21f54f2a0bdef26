package xmltree

// DeepCopy returns an independent copy of the subtree rooted at n.
// Node identifiers are reset to zero: per the paper (§3.2, definition
// (3) remark), a peer sending a tree first makes a copy, and the copy
// acquires fresh identifiers at its destination. Use DeepCopyKeepIDs
// when a verbatim clone is required.
func DeepCopy(n *Node) *Node {
	if n == nil {
		return nil
	}
	c := &Node{
		Kind:  n.Kind,
		Label: n.Label,
		Text:  n.Text,
	}
	if len(n.Attrs) > 0 {
		c.Attrs = make([]Attr, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, 0, len(n.Children))
		for _, ch := range n.Children {
			c.Children = append(c.Children, DeepCopy(ch))
		}
	}
	return c
}

// DeepCopyKeepIDs clones the subtree preserving node identifiers.
func DeepCopyKeepIDs(n *Node) *Node {
	if n == nil {
		return nil
	}
	c := DeepCopy(n)
	// Walk both trees in lock-step to copy IDs. Structure is identical.
	var cp func(src, dst *Node)
	cp = func(src, dst *Node) {
		dst.ID = src.ID
		for i := range src.Children {
			cp(src.Children[i], dst.Children[i])
		}
	}
	cp(n, c)
	return c
}

// DeepCopyForest copies a slice of trees.
func DeepCopyForest(nodes []*Node) []*Node {
	if nodes == nil {
		return nil
	}
	out := make([]*Node, len(nodes))
	for i, n := range nodes {
		out[i] = DeepCopy(n)
	}
	return out
}
