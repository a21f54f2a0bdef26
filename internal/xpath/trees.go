package xpath

import (
	"slices"

	"axml/internal/xmltree"
)

// Trees names the trees an evaluation reads, by their roots. A node has
// no parent pointer — a stored subtree is shared between epochs of its
// document — so the parent, ancestor and sibling axes and absolute
// paths find where a node sits here. On the first step that asks, every
// named tree is indexed child → parent; a tree named later is indexed
// on the next step that asks. A node outside every named tree has no
// parent and is its own root.
//
// Indexing only reads the trees, so naming a published document beside
// writers is safe: a published node is never written. A Trees belongs
// to one evaluation and is not safe for concurrent use.
type Trees struct {
	roots   []*xmltree.Node
	named   map[*xmltree.Node]bool
	indexed int // roots[:indexed] are in parent
	// parent maps a node of a named tree to its parent, and an
	// attribute node the evaluation made to its element.
	parent map[*xmltree.Node]*xmltree.Node
}

// NewTrees names the given trees.
func NewTrees(roots ...*xmltree.Node) *Trees {
	t := &Trees{}
	for _, r := range roots {
		t.Add(r)
	}
	return t
}

// Add names one more tree; naming a tree twice is naming it once.
func (t *Trees) Add(root *xmltree.Node) {
	if t.named[root] {
		return
	}
	if t.named == nil {
		t.named = map[*xmltree.Node]bool{}
	}
	t.named[root] = true
	t.roots = append(t.roots, root)
}

// parentOf returns n's parent in the named trees: nil for a root, a
// node outside them, or any node when t is nil.
func (t *Trees) parentOf(n *xmltree.Node) *xmltree.Node {
	if t == nil {
		return nil
	}
	for ; t.indexed < len(t.roots); t.indexed++ {
		if t.parent == nil {
			t.parent = map[*xmltree.Node]*xmltree.Node{}
		}
		t.index(t.roots[t.indexed])
	}
	return t.parent[n]
}

func (t *Trees) index(n *xmltree.Node) {
	for _, c := range n.Children {
		t.parent[c] = n
		t.index(c)
	}
}

// rootOf returns the root of the named tree that holds n, or n.
func (t *Trees) rootOf(n *xmltree.Node) *xmltree.Node {
	for p := t.parentOf(n); p != nil; p = t.parentOf(p) {
		n = p
	}
	return n
}

// own records that the attribute axis made attr for el.
func (t *Trees) own(attr, el *xmltree.Node) {
	if t.parent == nil {
		t.parent = map[*xmltree.Node]*xmltree.Node{}
	}
	t.parent[attr] = el
}

// inDocOrder returns a copy of ns sorted into document order: the nodes
// of one named tree by where they sit in it, an attribute after its
// element and before the element's children, and the trees in the order
// ns first reaches them. Positions in a filter's predicates count in
// this order, whatever order a union gathered its nodes in.
func inDocOrder(ns NodeSet, trees *Trees) NodeSet {
	out := slices.Clone(ns)
	if len(out) < 2 {
		return out
	}
	// A node's key is its root's rank, then the index of each node on
	// the way down from the root among its parent's children: -1 for an
	// attribute, which is no child.
	keys := make(map[*xmltree.Node][]int, len(out))
	roots := map[*xmltree.Node]int{}
	for _, n := range out {
		var path []int
		x := n
		for p := trees.parentOf(x); p != nil; x, p = p, trees.parentOf(p) {
			path = append(path, slices.Index(p.Children, x))
		}
		rank, ok := roots[x]
		if !ok {
			rank = len(roots)
			roots[x] = rank
		}
		path = append(path, rank)
		slices.Reverse(path)
		keys[n] = path
	}
	slices.SortStableFunc(out, func(a, b *xmltree.Node) int { return slices.Compare(keys[a], keys[b]) })
	return out
}
