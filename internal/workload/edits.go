package workload

import (
	"fmt"
	"math/rand"

	"axml/internal/xmltree"
)

// Edit is one generated change to a stored document: Tree appended
// under Parent when Child is zero, otherwise Parent's child Child
// removed, or replaced by Tree when Tree is set.
type Edit struct {
	Parent, Child xmltree.NodeID
	Tree          *xmltree.Node
	What          string // the edit in words
}

// EditItem is the item with key k that an edit adds.
func EditItem(k int) *xmltree.Node {
	return xmltree.E("item", xmltree.A("id", fmt.Sprint(k)),
		xmltree.E("name", xmltree.T(fmt.Sprint("n-", k))), xmltree.E("price", xmltree.T(fmt.Sprint(k%30))))
}

// NextEdit draws from r an edit of root at any depth: EditItem(k)
// appended under the root or an item, or an element below the root
// removed or replaced by EditItem(k).
func NextEdit(r *rand.Rand, root *xmltree.Node, k int) Edit {
	var elems, parents []*xmltree.Node
	var walk func(n, parent *xmltree.Node)
	walk = func(n, parent *xmltree.Node) {
		elems, parents = append(elems, n), append(parents, parent)
		for _, ch := range n.ChildElements() {
			walk(ch, n)
		}
	}
	walk(root, nil)
	i := 1 + r.Intn(len(elems)-1)
	pick := Edit{Parent: parents[i].ID, Child: elems[i].ID}
	switch op := r.Intn(3); {
	case op == 0 || len(root.Children) < 3:
		at := elems[r.Intn(len(elems))]
		if at.Label != "item" {
			at = root
		}
		return Edit{Parent: at.ID, Tree: EditItem(k), What: fmt.Sprintf("appending item %d under <%s>", k, at.Label)}
	case op == 1:
		pick.What = fmt.Sprintf("removing a <%s>", elems[i].Label)
	default:
		pick.Tree, pick.What = EditItem(k), fmt.Sprintf("replacing a <%s> with item %d", elems[i].Label, k)
	}
	return pick
}
