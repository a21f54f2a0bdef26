package peer

import (
	"errors"
	"fmt"
	"slices"

	"axml/internal/xmltree"
)

// Write runs fn as one transaction over the store, the only way a
// stored tree changes. The edits fn makes through tx apply in order,
// each seeing the ones before it. When fn returns nil they publish
// together: one new root per document written, one store epoch, one
// change-feed record per edit (all carrying that epoch) and one wake per
// watcher, so a reader sees all of them or none. When fn returns an
// error nothing is published and the node index is put back: documents,
// roots, index, epoch and feed are as they were before the call.
//
// Writes are copy-on-write. Each node on the path from a root down to an
// edited node is copied once per transaction, everything else stays
// shared with the previous epoch, and Snapshot handles pinned before the
// call keep seeing their trees. Edits under a detached anchor
// (FreshAnchor) take the same path but publish nothing.
//
// fn runs under the peer's write lock: it must not call the peer's
// methods, and tx is valid only until fn returns.
func (p *Peer) Write(fn func(tx *Tx) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	tx := &p.tx
	tx.p = p
	defer tx.end()
	if err := fn(tx); err != nil {
		return err
	}
	tx.commit()
	return nil
}

// ErrStoredNode is wrapped by an edit refused because the tree it hands
// the store holds a node the store already has: a published node is
// read-only, so a tree read from a document (a streamed query row, a
// Handle.Root) must be deep-copied before it is stored again.
var ErrStoredNode = errors.New("node is already stored")

// Tx is a transaction in progress: the edits of one Write.
type Tx struct {
	p *Peer
	// docs holds each document the transaction wrote: its unpublished
	// root and one commit record per edit.
	docs []txDoc
	// copied marks the nodes whose copies this transaction already
	// made; a copy is unpublished, so it is written in place.
	copied map[xmltree.NodeID]bool
	// undo puts the node index back, newest first, when fn fails.
	undo []undo
}

type txDoc struct {
	name    string
	root    *xmltree.Node // nil once dropped
	commits []xmltree.Commit
	// fresh marks a document this transaction installed: it publishes
	// with a feed of its own, which starts at the transaction's epoch.
	fresh bool
}

// undo reverts one change to the node index: a node's entry before
// it pointed at the node's copy (undoCopy), a subtree indexed by an
// edit (undoAdopt) or one de-indexed by an edit (undoDrop), whose root
// entry was e.
type undo struct {
	op undoOp
	e  indexEntry
}

type undoOp uint8

const (
	undoCopy undoOp = iota
	undoAdopt
	undoDrop
)

// edit is one edit under way: its writable target, the document that
// holds it ("" under an anchor), and the record of where it sits.
type edit struct {
	target *xmltree.Node
	doc    string
	commit xmltree.Commit
}

// Has reports whether the identified node is in the store as the
// transaction has left it so far.
func (tx *Tx) Has(id xmltree.NodeID) bool {
	_, ok := tx.p.index[id]
	return ok
}

// Append adds tree as the last child of the identified element. The
// peer takes ownership of the tree: fresh IDs, indexed.
func (tx *Tx) Append(parent xmltree.NodeID, tree *xmltree.Node) error {
	if err := tx.unstored(tree); err != nil {
		return err
	}
	ed, err := tx.at(parent)
	if err != nil {
		return err
	}
	tx.adopt(tree, ed.doc, parent)
	ed.target.AppendChild(tree)
	ed.commit.Added = tree.ID
	tx.record(ed)
	return nil
}

// Remove detaches the identified node from its parent and de-indexes
// its subtree. When parent is nonzero the node must currently be a
// child of that node (the safety check retraction tombstones land
// with); parent zero removes the node from wherever it hangs. Document
// roots cannot be removed this way (use Drop).
func (tx *Tx) Remove(parent, child xmltree.NodeID) error {
	e, ed, i, err := tx.detach(parent, child)
	if err != nil {
		return err
	}
	// The removed subtree is shared with older epochs: it is spliced out
	// untouched, its Parent pointers as they were.
	ed.target.Children = slices.Delete(ed.target.Children, i, i+1)
	tx.drop(e)
	ed.commit.Removed = child
	tx.record(ed)
	return nil
}

// Replace swaps the identified node for tree in place (position
// preserved): the old subtree is de-indexed, the new one adopted. The
// same parent check as Remove applies.
func (tx *Tx) Replace(parent, child xmltree.NodeID, tree *xmltree.Node) error {
	if tree == nil {
		return fmt.Errorf("peer %s: Replace(nil)", tx.p.ID)
	}
	if err := tx.unstored(tree); err != nil {
		return err
	}
	e, ed, i, err := tx.detach(parent, child)
	if err != nil {
		return err
	}
	tx.drop(e)
	tx.adopt(tree, ed.doc, e.parent)
	tree.Parent = ed.target
	ed.target.Children[i] = tree
	ed.commit.Removed, ed.commit.Added = child, tree.ID
	tx.record(ed)
	return nil
}

// ReplaceChildren replaces the children of the identified element with
// the given forest. The whole child list goes, so the edit's record
// names no subtree and feed consumers re-derive from the document.
func (tx *Tx) ReplaceChildren(id xmltree.NodeID, forest []*xmltree.Node) error {
	for _, tree := range forest {
		if err := tx.unstored(tree); err != nil {
			return err
		}
	}
	ed, err := tx.at(id)
	if err != nil {
		return err
	}
	for _, c := range ed.target.Children {
		tx.drop(indexEntry{node: c, doc: ed.doc, parent: id})
	}
	ed.target.Children = nil
	for _, tree := range forest {
		tx.adopt(tree, ed.doc, id)
		ed.target.AppendChild(tree)
	}
	tx.record(ed)
	return nil
}

// Install adds root as document name (paper: a new pair (d, p); no two
// documents agree on (d, p)). The peer takes ownership of the tree:
// nodes without an identifier get a fresh one, and all are indexed. A
// reader whose state predates the install (the name was dropped and
// installed again) gets no catch-up from the document's feed.
func (tx *Tx) Install(name string, root *xmltree.Node) error {
	switch _, exists := tx.root(name); {
	case name == "":
		return fmt.Errorf("peer %s: empty document name", tx.p.ID)
	case root == nil:
		return fmt.Errorf("peer %s: nil document root", tx.p.ID)
	case exists:
		return fmt.Errorf("peer %s: document %q already exists", tx.p.ID, name)
	}
	if err := tx.unstored(root); err != nil {
		return err
	}
	tx.adopt(root, name, 0)
	*tx.doc(name) = txDoc{name: name, root: root, fresh: true}
	return nil
}

// Drop removes the named document and de-indexes its nodes. It returns
// the root as the transaction has left it, identifiers kept, so the same
// transaction can Install it under another name.
func (tx *Tx) Drop(name string) (*xmltree.Node, error) {
	root, ok := tx.root(name)
	if !ok {
		return nil, fmt.Errorf("peer %s: %w: %q", tx.p.ID, ErrNoSuchDoc, name)
	}
	tx.drop(indexEntry{node: root, doc: name})
	*tx.doc(name) = txDoc{name: name}
	return root, nil
}

// root returns the named document's root as the transaction has left it.
func (tx *Tx) root(name string) (*xmltree.Node, bool) {
	for _, w := range tx.docs {
		if w.name == name {
			return w.root, w.root != nil
		}
	}
	d, ok := tx.p.docs[name]
	if !ok {
		return nil, false
	}
	return d.pub.root, true
}

// doc returns the transaction's entry for the named document, adding an
// empty one on the document's first write.
func (tx *Tx) doc(name string) *txDoc {
	for i := range tx.docs {
		if tx.docs[i].name == name {
			return &tx.docs[i]
		}
	}
	tx.docs = append(tx.docs, txDoc{name: name})
	return &tx.docs[len(tx.docs)-1]
}

func (tx *Tx) entry(id xmltree.NodeID) (indexEntry, error) {
	e, ok := tx.p.index[id]
	if !ok {
		return e, fmt.Errorf("peer %s: no node n%d", tx.p.ID, id)
	}
	return e, nil
}

// detach prepares the identified node to leave its parent, which it
// must have, and which must be parent when parent is nonzero: it
// returns the node's index entry, the writable parent and the node's
// position among the parent's children.
func (tx *Tx) detach(parent, id xmltree.NodeID) (e indexEntry, ed edit, i int, err error) {
	if e, err = tx.entry(id); err != nil {
		return e, ed, 0, err
	}
	if e.parent == 0 {
		return e, ed, 0, fmt.Errorf("peer %s: node n%d has no parent", tx.p.ID, id)
	}
	if parent != 0 && e.parent != parent {
		return e, ed, 0, fmt.Errorf("peer %s: node n%d is not a child of n%d", tx.p.ID, id, parent)
	}
	if ed, err = tx.at(e.parent); err != nil {
		return e, ed, 0, err
	}
	if i = childIndex(ed.target, id); i < 0 {
		return e, ed, 0, fmt.Errorf("peer %s: node n%d vanished from its parent", tx.p.ID, id)
	}
	return e, ed, i, nil
}

// at makes the identified element writable. It copies the spine from
// the root of the element's tree down to it, each node once per
// transaction, points the index at the copies, and returns the
// element's copy with the record of where it sits. Off-spine subtrees stay shared
// with the published epoch and are never written, so their Parent
// pointers keep referring to the spine of the epoch that created them;
// that is why ancestry is read from the index's parent IDs.
func (tx *Tx) at(id xmltree.NodeID) (edit, error) {
	p := tx.p
	spine := make([]xmltree.NodeID, 0, 8)
	var top indexEntry
	for cur := id; cur != 0; cur = top.parent {
		e, err := tx.entry(cur)
		if err != nil {
			return edit{}, err
		}
		if cur == id && e.node.Kind != xmltree.ElementNode {
			return edit{}, fmt.Errorf("peer %s: node n%d cannot take children", p.ID, id)
		}
		spine, top = append(spine, cur), e
	}
	slices.Reverse(spine)
	if top.doc != "" {
		if root, ok := tx.root(top.doc); !ok || root.ID != spine[0] {
			return edit{}, fmt.Errorf("peer %s: node n%d is not in document %q", p.ID, id, top.doc)
		}
	}
	cur := top.node
	if !tx.copied[cur.ID] {
		cur = tx.copy(cur)
		if top.doc != "" {
			tx.doc(top.doc).root = cur
		}
	}
	pos := make([]int, 0, len(spine)-1)
	for _, next := range spine[1:] {
		j := childIndex(cur, next)
		if j < 0 {
			return edit{}, fmt.Errorf("peer %s: node n%d vanished from its parent", p.ID, next)
		}
		child := cur.Children[j]
		if !tx.copied[next] {
			child = tx.copy(child)
			child.Parent = cur
			cur.Children[j] = child
		}
		pos = append(pos, j)
		cur = child
	}
	return edit{target: cur, doc: top.doc, commit: xmltree.Commit{Spine: spine, Pos: pos}}, nil
}

// copy makes the transaction's copy of n — same ID, fresh Attrs and
// Children backing arrays still referencing the shared child subtrees —
// and points the index at it.
func (tx *Tx) copy(n *xmltree.Node) *xmltree.Node {
	c := &xmltree.Node{ID: n.ID, Kind: n.Kind, Label: n.Label, Text: n.Text}
	if len(n.Attrs) > 0 {
		c.Attrs = append([]xmltree.Attr(nil), n.Attrs...)
	}
	if len(n.Children) > 0 {
		c.Children = append([]*xmltree.Node(nil), n.Children...)
	}
	e := tx.p.index[n.ID]
	tx.undo = append(tx.undo, undo{op: undoCopy, e: e})
	e.node = c
	tx.p.index[n.ID] = e
	if tx.copied == nil {
		tx.copied = map[xmltree.NodeID]bool{}
	}
	tx.copied[n.ID] = true
	return c
}

// unstored refuses a tree that holds a node the index maps to that very
// node: adopting it would re-index, and later write, a node that
// published epochs share. Every edit that adopts a tree asks first, so
// a refused edit has changed nothing.
func (tx *Tx) unstored(tree *xmltree.Node) error {
	var stored *xmltree.Node
	tree.Walk(func(n *xmltree.Node) bool {
		if stored == nil && n.ID != 0 {
			if e, ok := tx.p.index[n.ID]; ok && e.node == n {
				stored = n
			}
		}
		return stored == nil
	})
	if stored != nil {
		return fmt.Errorf("peer %s: %w: n%d (deep-copy a tree read from the store before storing it)", tx.p.ID, ErrStoredNode, stored.ID)
	}
	return nil
}

// adopt assigns IDs to a subtree and indexes it into doc under parent.
func (tx *Tx) adopt(tree *xmltree.Node, doc string, parent xmltree.NodeID) {
	xmltree.AssignIDs(tree, &tx.p.idgen)
	tx.p.indexSubtree(tree, doc, parent)
	tx.undo = append(tx.undo, undo{op: undoAdopt, e: indexEntry{node: tree}})
}

// drop de-indexes the subtree whose root entry is e.
func (tx *Tx) drop(e indexEntry) {
	tx.p.deindex(e.node)
	tx.undo = append(tx.undo, undo{op: undoDrop, e: e})
}

// record files a finished edit's commit under its document.
func (tx *Tx) record(ed edit) {
	if ed.doc != "" {
		w := tx.doc(ed.doc)
		w.commits = append(w.commits, ed.commit)
	}
}

// commit publishes the transaction as one store epoch.
func (tx *Tx) commit() {
	p := tx.p
	clear(tx.undo)
	tx.undo = tx.undo[:0]
	if len(tx.docs) == 0 {
		return
	}
	p.epoch++
	for i := range tx.docs {
		p.publishLocked(&tx.docs[i], p.epoch)
	}
}

// publishLocked makes a written document as the transaction left it
// current — gone when dropped; installed with a feed starting at epoch;
// otherwise its new root, with the transaction's commits on its feed —
// and wakes its watchers. Callers hold p.mu.
func (p *Peer) publishLocked(w *txDoc, epoch uint64) {
	switch d := p.docs[w.name]; {
	case w.root == nil:
		delete(p.docs, w.name)
	case w.fresh:
		p.docs[w.name] = &document{pub: &published{root: w.root, epoch: epoch}, feed: feed{floor: epoch}}
	default:
		for i := range w.commits {
			w.commits[i].Epoch = epoch
		}
		d.pub = &published{root: w.root, epoch: epoch}
		if len(w.commits) > 0 {
			d.feed.push(w.commits)
		}
	}
	for _, ch := range p.watchers[w.name] {
		select {
		case ch <- Change{Doc: w.name, Epoch: epoch}:
		default: // watcher already has a pending notification
		}
	}
}

// end closes the transaction: whatever it left uncommitted is undone,
// newest first, and its buffers are emptied for the next one (a
// transaction that grew them large lets them go).
func (tx *Tx) end() {
	p := tx.p
	for i := len(tx.undo) - 1; i >= 0; i-- {
		switch u := tx.undo[i]; u.op {
		case undoCopy:
			p.index[u.e.node.ID] = u.e
		case undoAdopt:
			p.deindex(u.e.node)
		case undoDrop:
			p.indexSubtree(u.e.node, u.e.doc, u.e.parent)
		}
	}
	clear(tx.undo)
	clear(tx.docs)
	tx.undo, tx.docs = tx.undo[:0], tx.docs[:0]
	if len(tx.copied) > 64 || cap(tx.undo) > 1024 {
		tx.copied, tx.undo = nil, nil
	}
	clear(tx.copied)
}

// childIndex finds the position of the child with the given ID.
func childIndex(parent *xmltree.Node, id xmltree.NodeID) int {
	for i, c := range parent.Children {
		if c.ID == id {
			return i
		}
	}
	return -1
}
