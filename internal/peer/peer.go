// Package peer implements the peer runtime of the AXML framework
// (paper §2): a context of computation hosting named documents and
// services. A peer owns its trees — every node of an installed
// document gets an identifier unique within the peer, so that global
// node references n@p (the targets of forw lists and send expressions)
// can be resolved. Mutations go through the peer so that the node
// index stays consistent and document watchers fire.
package peer

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"axml/internal/netsim"
	"axml/internal/service"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// ErrNoSuchDoc is wrapped by every "document not found" failure of a
// peer's store, so callers at any layer (core evaluation, sessions,
// wire clients) can branch on the failure kind with errors.Is.
var ErrNoSuchDoc = errors.New("no such document")

// NodeRef is a global node reference n@p (paper §2.3).
type NodeRef struct {
	Peer netsim.PeerID
	Node xmltree.NodeID
}

func (r NodeRef) String() string {
	return "n" + strconv.FormatUint(uint64(r.Node), 10) + "@" + string(r.Peer)
}

// ParseNodeRef parses the "n<id>@<peer>" notation.
func ParseNodeRef(s string) (NodeRef, error) {
	body, peerName, ok := strings.Cut(s, "@")
	if !ok || !strings.HasPrefix(body, "n") {
		return NodeRef{}, fmt.Errorf("peer: bad node reference %q", s)
	}
	id, err := strconv.ParseUint(strings.TrimPrefix(body, "n"), 10, 64)
	if err != nil {
		return NodeRef{}, fmt.Errorf("peer: bad node reference %q: %w", s, err)
	}
	return NodeRef{Peer: netsim.PeerID(peerName), Node: xmltree.NodeID(id)}, nil
}

// Document is a named tree d@p. The descriptor is live: Root always
// points at the newest epoch's root and is swapped — never mutated in
// place — on each committed write, so a published root and everything
// below it is immutable. Callers that need a stable multi-document
// view across reads use Peer.Snapshot instead of holding Root.
type Document struct {
	Name    string
	Root    *xmltree.Node
	Version int64
	pub     *published // Root as snapshots pin it; replaced whenever Root is
	feed    feed       // what the recent commits to this document touched
}

// published is one published root with the epoch that published it and
// its node count, taken by the first reader that asks (the cost model
// asks on every query). A published tree is immutable, so the count
// cannot go stale.
type published struct {
	root  *xmltree.Node
	epoch uint64
	once  sync.Once
	nodes int
}

func (p *published) nodeCount() int {
	p.once.Do(func() { p.nodes = p.root.NodeCount() })
	return p.nodes
}

// ChangeKind discriminates typed document-change events.
type ChangeKind uint8

const (
	// ChangeInsert: a subtree was added (AddChild, InsertAfter).
	ChangeInsert ChangeKind = iota + 1
	// ChangeDelete: a subtree was removed (RemoveChildByID).
	ChangeDelete
	// ChangeReplace: a subtree was swapped in place (ReplaceChildByID,
	// ReplaceChildren — for the bulk form Node is the parent).
	ChangeReplace
	// ChangeTouch: a version bump without structural detail (Touch).
	ChangeTouch
)

func (k ChangeKind) String() string {
	switch k {
	case ChangeInsert:
		return "insert"
	case ChangeDelete:
		return "delete"
	case ChangeReplace:
		return "replace"
	case ChangeTouch:
		return "touch"
	default:
		return "change"
	}
}

// Change is the record of one commit: what happened, to which
// document, the identifier of the affected subtree root (the
// inserted/replacing tree for inserts and replaces, the removed tree
// for deletes; zero for Touch), and — the embedded Commit — the store
// epoch it committed as and the node identifiers it touched. A reader
// holding a Snapshot handle with an equal or later epoch already sees
// it. The Commit part is what the document's change feed keeps
// (Handle.Changes): exact, ordered and bounded. Watch channels carry
// the same record but coalesce under backpressure — a received Change
// means "at least this happened since you last looked" — so consumers
// that need exactness (view maintenance) read the feed, not the channel.
type Change struct {
	Kind ChangeKind
	Doc  string
	Node xmltree.NodeID
	xmltree.Commit
}

// feedLen bounds the change feed of one document. A consumer that
// falls further behind than this re-derives from the document, which
// costs what every refresh cost before the feed existed.
const feedLen = 256

// feed is the change feed of one document: a ring of the last feedLen
// commits, oldest at ring[start]. Every commit to the document after
// epoch floor is in the ring, so a reader whose state reflects an epoch
// at or past floor can catch up from it alone.
type feed struct {
	ring  []xmltree.Commit
	start int
	floor uint64
}

func (f *feed) push(c xmltree.Commit) {
	if len(f.ring) < feedLen {
		f.ring = append(f.ring, c)
		return
	}
	f.floor = f.ring[f.start].Epoch
	f.ring[f.start] = c
	f.start = (f.start + 1) % feedLen
}

// since returns the commits with after < Epoch ≤ upto, oldest first;
// ok is false when the ring no longer reaches back to after.
func (f *feed) since(after, upto uint64) (out []xmltree.Commit, ok bool) {
	if after < f.floor {
		return nil, false
	}
	for i := range f.ring {
		c := &f.ring[(f.start+i)%len(f.ring)]
		if c.Epoch > upto {
			break
		}
		if c.Epoch > after {
			out = append(out, *c)
		}
	}
	return out, true
}

// indexEntry records where a node currently lives: the newest-epoch
// node carrying the ID, its owning document, and its parent's ID.
// Ancestry is reconstructed through parent IDs rather than the nodes'
// Parent pointers because copy-on-write shares subtrees between
// epochs: a shared node's Parent still points into the spine of the
// epoch that created it and must never be rewritten once published.
type indexEntry struct {
	node   *xmltree.Node
	doc    string
	parent xmltree.NodeID
}

// Peer is one peer p ∈ P.
//
// Lock ordering: p.mu before p.pinMu (Snapshot pins while still
// publishing-consistent); pinMu is never held across a p.mu acquire.
type Peer struct {
	ID netsim.PeerID

	mu       sync.RWMutex
	docs     map[string]*Document
	services map[string]*service.Service
	idgen    xmltree.SeqIDGen
	index    map[xmltree.NodeID]indexEntry
	watchers map[string][]chan Change
	// epoch counts committed mutations across the whole store. Every
	// write publishes a new root for the touched document and bumps it;
	// Snapshot captures it so readers can name the version they saw.
	epoch uint64

	// pinMu guards the epoch pin table (see snapshot.go).
	pinMu sync.Mutex
	pins  map[uint64]*pin
}

// New creates an empty peer.
func New(id netsim.PeerID) *Peer {
	return &Peer{
		ID:       id,
		docs:     map[string]*Document{},
		services: map[string]*service.Service{},
		index:    map[xmltree.NodeID]indexEntry{},
		watchers: map[string][]chan Change{},
		pins:     map[uint64]*pin{},
	}
}

// InstallDocument installs root as document name (paper: a new pair
// (d, p); no two documents agree on (d, p)). The peer takes ownership
// of the tree: all nodes get fresh identifiers and are indexed.
func (p *Peer) InstallDocument(name string, root *xmltree.Node) error {
	if name == "" {
		return fmt.Errorf("peer %s: empty document name", p.ID)
	}
	if root == nil {
		return fmt.Errorf("peer %s: nil document root", p.ID)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, exists := p.docs[name]; exists {
		return fmt.Errorf("peer %s: document %q already exists", p.ID, name)
	}
	xmltree.AssignIDs(root, &p.idgen)
	p.indexSubtree(root, name, 0)
	p.epoch++
	// The feed starts at the install: a reader whose state predates it
	// (the name was removed and installed again) gets no catch-up.
	p.docs[name] = &Document{Name: name, Root: root, Version: 1,
		pub: &published{root: root, epoch: p.epoch}, feed: feed{floor: p.epoch}}
	return nil
}

// RemoveDocument uninstalls a document and de-indexes its nodes.
func (p *Peer) RemoveDocument(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	doc, ok := p.docs[name]
	if !ok {
		return fmt.Errorf("peer %s: %w: %q", p.ID, ErrNoSuchDoc, name)
	}
	doc.Root.Walk(func(n *xmltree.Node) bool {
		delete(p.index, n.ID)
		return true
	})
	delete(p.docs, name)
	p.epoch++
	return nil
}

// Document returns the named document. The returned root must be
// treated as read-only by callers; mutations go through peer methods.
// The descriptor is live (Root tracks the newest epoch) — readers that
// must not observe concurrent writes pin a Snapshot handle instead.
func (p *Peer) Document(name string) (*Document, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	d, ok := p.docs[name]
	return d, ok
}

// DocumentBytes returns the serialized size of the named document as
// currently published — the catalog statistic the optimizer prices
// transfers with. Only the root pointer is read under the lock; the
// published tree is immutable, so it is sized after the lock is
// released and a writer never waits on the walk.
func (p *Peer) DocumentBytes(name string) (int, bool) {
	p.mu.RLock()
	d, ok := p.docs[name]
	if !ok {
		p.mu.RUnlock()
		return 0, false
	}
	root := d.Root
	p.mu.RUnlock()
	return root.ByteSize(), true
}

// HasDocument reports whether the named document exists.
func (p *Peer) HasDocument(name string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.docs[name]
	return ok
}

// DocumentNames lists installed documents.
func (p *Peer) DocumentNames() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.docs))
	for name := range p.docs {
		out = append(out, name)
	}
	return out
}

// NodeByID resolves a node identifier.
func (p *Peer) NodeByID(id xmltree.NodeID) (*xmltree.Node, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	e, ok := p.index[id]
	return e.node, ok
}

// DocumentOfNode returns the name of the document containing the node.
func (p *Peer) DocumentOfNode(id xmltree.NodeID) (string, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	e, ok := p.index[id]
	return e.doc, ok
}

// AddChild appends tree as a new child of the identified node. The
// peer takes ownership of the tree (fresh IDs, indexed). Watchers of
// the owning document are notified. This is the landing operation of
// definition (4): the sent tree is "added as a child of n@p".
//
// Like every structural mutation, the write is copy-on-write: the
// spine from the document root down to the target is cloned, the rest
// of the tree is shared structurally with the previous epoch, and the
// new root is published by swapping the document's root pointer.
// Snapshot handles pinned before the call keep seeing the old epoch.
func (p *Peer) AddChild(parent xmltree.NodeID, tree *xmltree.Node) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.index[parent]
	if !ok {
		return fmt.Errorf("peer %s: no node n%d", p.ID, parent)
	}
	if e.node.Kind != xmltree.ElementNode {
		return fmt.Errorf("peer %s: node n%d cannot take children", p.ID, parent)
	}
	if e.doc == "" {
		// Detached anchors (FreshAnchor) are not published documents:
		// mutate in place, no epoch, no watchers.
		p.adopt(tree, "", parent)
		e.node.AppendChild(tree)
		return nil
	}
	newRoot, target, commit, err := p.cowSpineLocked(e.doc, parent)
	if err != nil {
		return err
	}
	p.adopt(tree, e.doc, parent)
	target.AppendChild(tree)
	commit.Added = tree.ID
	p.publishLocked(e.doc, newRoot, Change{Kind: ChangeInsert, Doc: e.doc, Node: tree.ID, Commit: commit})
	return nil
}

// InsertAfter inserts tree as the next sibling of the identified node
// (the AXML placement of service results next to their sc node, §2.2).
func (p *Peer) InsertAfter(ref xmltree.NodeID, tree *xmltree.Node) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.index[ref]
	if !ok {
		return fmt.Errorf("peer %s: no node n%d", p.ID, ref)
	}
	if e.parent == 0 {
		return fmt.Errorf("peer %s: node n%d has no parent", p.ID, ref)
	}
	if e.doc == "" {
		pe := p.index[e.parent]
		p.adopt(tree, "", e.parent)
		return pe.node.InsertAfter(e.node, tree)
	}
	newRoot, target, commit, err := p.cowSpineLocked(e.doc, e.parent)
	if err != nil {
		return err
	}
	i := childIndex(target, ref)
	if i < 0 {
		return fmt.Errorf("peer %s: node n%d vanished from its parent", p.ID, ref)
	}
	p.adopt(tree, e.doc, e.parent)
	target.InsertChildAt(i+1, tree)
	commit.Added = tree.ID
	p.publishLocked(e.doc, newRoot, Change{Kind: ChangeInsert, Doc: e.doc, Node: tree.ID, Commit: commit})
	return nil
}

// RemoveChildByID detaches the identified node from its parent,
// de-indexes the whole subtree and notifies watchers with a delete
// event. When parent is nonzero the node must currently be a child of
// that node (the safety check used when retraction tombstones land);
// parent zero removes the node from wherever it hangs. Document roots
// cannot be removed this way (use RemoveDocument).
func (p *Peer) RemoveChildByID(parent, child xmltree.NodeID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.index[child]
	if !ok {
		return fmt.Errorf("peer %s: no node n%d", p.ID, child)
	}
	if e.parent == 0 {
		return fmt.Errorf("peer %s: node n%d has no parent", p.ID, child)
	}
	if parent != 0 && e.parent != parent {
		return fmt.Errorf("peer %s: node n%d is not a child of n%d", p.ID, child, parent)
	}
	if e.doc == "" {
		pe := p.index[e.parent]
		if !pe.node.RemoveChild(e.node) {
			return fmt.Errorf("peer %s: node n%d vanished from its parent", p.ID, child)
		}
		e.node.Walk(func(n *xmltree.Node) bool {
			delete(p.index, n.ID)
			return true
		})
		return nil
	}
	newRoot, target, commit, err := p.cowSpineLocked(e.doc, e.parent)
	if err != nil {
		return err
	}
	i := childIndex(target, child)
	if i < 0 {
		return fmt.Errorf("peer %s: node n%d vanished from its parent", p.ID, child)
	}
	// Splice without touching the removed subtree: it is still shared
	// with older epochs, so its Parent pointers must survive as-is.
	target.Children = append(target.Children[:i], target.Children[i+1:]...)
	e.node.Walk(func(n *xmltree.Node) bool {
		delete(p.index, n.ID)
		return true
	})
	commit.Removed = child
	p.publishLocked(e.doc, newRoot, Change{Kind: ChangeDelete, Doc: e.doc, Node: child, Commit: commit})
	return nil
}

// ReplaceChildByID swaps the identified node for tree in place
// (position preserved). The old subtree is de-indexed, the new one
// adopted (fresh IDs, indexed), and watchers are notified with a
// replace event carrying the new subtree root's identifier. The same
// parent check as RemoveChildByID applies.
func (p *Peer) ReplaceChildByID(parent, child xmltree.NodeID, tree *xmltree.Node) error {
	if tree == nil {
		return fmt.Errorf("peer %s: ReplaceChildByID(nil)", p.ID)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.index[child]
	if !ok {
		return fmt.Errorf("peer %s: no node n%d", p.ID, child)
	}
	if e.parent == 0 {
		return fmt.Errorf("peer %s: node n%d has no parent", p.ID, child)
	}
	if parent != 0 && e.parent != parent {
		return fmt.Errorf("peer %s: node n%d is not a child of n%d", p.ID, child, parent)
	}
	if e.doc == "" {
		pe := p.index[e.parent]
		p.adopt(tree, "", e.parent)
		if !pe.node.ReplaceChild(e.node, tree) {
			return fmt.Errorf("peer %s: node n%d vanished from its parent", p.ID, child)
		}
		e.node.Walk(func(n *xmltree.Node) bool {
			delete(p.index, n.ID)
			return true
		})
		return nil
	}
	newRoot, target, commit, err := p.cowSpineLocked(e.doc, e.parent)
	if err != nil {
		return err
	}
	i := childIndex(target, child)
	if i < 0 {
		return fmt.Errorf("peer %s: node n%d vanished from its parent", p.ID, child)
	}
	e.node.Walk(func(n *xmltree.Node) bool {
		delete(p.index, n.ID)
		return true
	})
	p.adopt(tree, e.doc, e.parent)
	tree.Parent = target
	target.Children[i] = tree
	commit.Removed, commit.Added = child, tree.ID
	p.publishLocked(e.doc, newRoot, Change{Kind: ChangeReplace, Doc: e.doc, Node: tree.ID, Commit: commit})
	return nil
}

// ReplaceChildren atomically replaces the children of the identified
// element with the given forest. The old subtrees are de-indexed, the
// new ones adopted (fresh IDs, indexed), and watchers of the owning
// document are notified once. View maintenance uses it for full
// re-materialization.
func (p *Peer) ReplaceChildren(id xmltree.NodeID, forest []*xmltree.Node) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.index[id]
	if !ok {
		return fmt.Errorf("peer %s: no node n%d", p.ID, id)
	}
	if e.node.Kind != xmltree.ElementNode {
		return fmt.Errorf("peer %s: node n%d cannot take children", p.ID, id)
	}
	if e.doc == "" {
		for _, c := range e.node.Children {
			c.Walk(func(n *xmltree.Node) bool {
				delete(p.index, n.ID)
				return true
			})
		}
		e.node.Children = nil
		for _, tree := range forest {
			p.adopt(tree, "", id)
			e.node.AppendChild(tree)
		}
		return nil
	}
	newRoot, target, commit, err := p.cowSpineLocked(e.doc, id)
	if err != nil {
		return err
	}
	for _, c := range target.Children {
		c.Walk(func(n *xmltree.Node) bool {
			delete(p.index, n.ID)
			return true
		})
	}
	target.Children = nil
	for _, tree := range forest {
		p.adopt(tree, e.doc, id)
		target.AppendChild(tree)
	}
	// The whole child list went: the commit names no subtree, and feed
	// consumers re-derive from the document.
	p.publishLocked(e.doc, newRoot, Change{Kind: ChangeReplace, Doc: e.doc, Node: id, Commit: commit})
	return nil
}

// ChildIDs returns the identifiers of the node's current children, in
// sibling order. View maintenance uses it to align freshly landed rows
// with the provenance that produced them.
func (p *Peer) ChildIDs(id xmltree.NodeID) ([]xmltree.NodeID, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	e, ok := p.index[id]
	if !ok {
		return nil, fmt.Errorf("peer %s: no node n%d", p.ID, id)
	}
	out := make([]xmltree.NodeID, len(e.node.Children))
	for i, c := range e.node.Children {
		out[i] = c.ID
	}
	return out, nil
}

// SelectIDs evaluates a query whose body is a bare path under the read
// lock and returns the identifiers of the matched live nodes. It is
// the addressing step of the update statements (delete/replace): the
// caller turns the IDs into RemoveChildByID/ReplaceChildByID calls.
func (p *Peer) SelectIDs(q *xquery.Query) ([]xmltree.NodeID, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	env := &xquery.Env{Resolve: func(name string) (*xmltree.Node, error) {
		d, ok := p.docs[name]
		if !ok {
			return nil, fmt.Errorf("peer %s: %w: %q", p.ID, ErrNoSuchDoc, name)
		}
		return d.Root, nil
	}}
	ns, err := xquery.LiveNodes(q, env)
	if err != nil {
		return nil, err
	}
	out := make([]xmltree.NodeID, 0, len(ns))
	for _, n := range ns {
		if n.ID != 0 {
			out = append(out, n.ID)
		}
	}
	return out, nil
}

// adopt assigns IDs and indexes a subtree into the given document,
// recording parent as the subtree root's parent identifier.
func (p *Peer) adopt(tree *xmltree.Node, doc string, parent xmltree.NodeID) {
	xmltree.AssignIDs(tree, &p.idgen)
	p.indexSubtree(tree, doc, parent)
}

// indexSubtree indexes n and its descendants, tracking parent IDs.
func (p *Peer) indexSubtree(n *xmltree.Node, doc string, parent xmltree.NodeID) {
	p.index[n.ID] = indexEntry{node: n, doc: doc, parent: parent}
	for _, c := range n.Children {
		p.indexSubtree(c, doc, n.ID)
	}
}

// cowSpineLocked prepares a copy-on-write mutation of the node with
// the given id inside doc: it clones the spine from the document root
// down to the target (fresh Children and Attrs backing arrays, same
// IDs), shares every off-spine subtree with the current epoch, points
// the index at the clones, and returns the new root, the target's clone
// and the start of the commit's record: where it wrote (the caller adds
// what). The caller mutates the returned target freely — it
// is unpublished until publishLocked swaps the document root. Shared
// subtrees are never written: their Parent pointers keep referring to
// the spine of the epoch that created them, which is why ancestry
// flows through index parent IDs instead.
func (p *Peer) cowSpineLocked(doc string, id xmltree.NodeID) (newRoot, target *xmltree.Node, where xmltree.Commit, err error) {
	d, ok := p.docs[doc]
	if !ok {
		return nil, nil, where, fmt.Errorf("peer %s: %w: %q", p.ID, ErrNoSuchDoc, doc)
	}
	// Collect the ID chain target..root through the index, then turn it
	// root first.
	var spine []xmltree.NodeID
	for cur := id; cur != 0; {
		spine = append(spine, cur)
		e, ok := p.index[cur]
		if !ok {
			return nil, nil, where, fmt.Errorf("peer %s: no node n%d", p.ID, cur)
		}
		cur = e.parent
	}
	slices.Reverse(spine)
	if spine[0] != d.Root.ID {
		return nil, nil, where, fmt.Errorf("peer %s: node n%d is not in document %q", p.ID, id, doc)
	}
	pos := make([]int, 0, len(spine)-1)
	cur := cloneShallow(d.Root)
	p.reindexClone(cur)
	newRoot = cur
	for _, next := range spine[1:] {
		j := childIndex(cur, next)
		if j < 0 {
			return nil, nil, where, fmt.Errorf("peer %s: node n%d vanished from its parent", p.ID, next)
		}
		child := cloneShallow(cur.Children[j])
		child.Parent = cur
		cur.Children[j] = child
		p.reindexClone(child)
		pos = append(pos, j)
		cur = child
	}
	return newRoot, cur, xmltree.Commit{Spine: spine, Pos: pos}, nil
}

// reindexClone points the index entry for a spine clone at the clone,
// keeping document and parent unchanged (clones keep their node IDs).
func (p *Peer) reindexClone(n *xmltree.Node) {
	e := p.index[n.ID]
	e.node = n
	p.index[n.ID] = e
}

// cloneShallow copies one node with fresh Attrs/Children backing
// arrays still referencing the shared child subtrees.
func cloneShallow(n *xmltree.Node) *xmltree.Node {
	c := &xmltree.Node{ID: n.ID, Kind: n.Kind, Label: n.Label, Text: n.Text}
	if len(n.Attrs) > 0 {
		c.Attrs = append([]xmltree.Attr(nil), n.Attrs...)
	}
	if len(n.Children) > 0 {
		c.Children = append([]*xmltree.Node(nil), n.Children...)
	}
	return c
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

// publishLocked commits a copy-on-write mutation: swaps the document's
// root to the new epoch's tree, bumps the store epoch and the document
// version, appends what the commit touched to the document's feed and
// notifies watchers with the same record. Callers hold p.mu.
func (p *Peer) publishLocked(doc string, newRoot *xmltree.Node, ev Change) {
	d, ok := p.docs[doc]
	if !ok {
		return
	}
	p.epoch++
	ev.Epoch = p.epoch
	d.Root, d.pub = newRoot, &published{root: newRoot, epoch: p.epoch}
	d.Version++
	d.feed.push(ev.Commit)
	for _, ch := range p.watchers[doc] {
		select {
		case ch <- ev:
		default: // watcher already has a pending notification
		}
	}
}

// Touch bumps a document's version and notifies watchers without a
// structural change (used by engines after bulk edits). The root is
// republished unchanged, so it still commits a fresh epoch.
func (p *Peer) Touch(doc string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.docs[doc]
	if !ok {
		return
	}
	p.publishLocked(doc, d.Root, Change{Kind: ChangeTouch, Doc: doc})
}

// Watch returns a channel receiving typed change events whenever the
// named document changes, and a cancel function. Events coalesce: a
// slow consumer keeps at most one pending event and loses the detail
// of the ones dropped behind it, so a received Change is a trigger
// plus a hint, never a complete replay of the mutation history.
func (p *Peer) Watch(doc string) (<-chan Change, func()) {
	ch := make(chan Change, 1)
	p.mu.Lock()
	p.watchers[doc] = append(p.watchers[doc], ch)
	p.mu.Unlock()
	cancel := func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		ws := p.watchers[doc]
		for i, w := range ws {
			if w == ch {
				p.watchers[doc] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
	}
	return ch, cancel
}

// RegisterService registers a service provided by this peer.
func (p *Peer) RegisterService(s *service.Service) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Provider != p.ID {
		return fmt.Errorf("peer %s: service %q declares provider %q", p.ID, s.Name, s.Provider)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, exists := p.services[s.Name]; exists {
		return fmt.Errorf("peer %s: service %q already registered", p.ID, s.Name)
	}
	p.services[s.Name] = s
	return nil
}

// Service resolves a local service by name.
func (p *Peer) Service(name string) (*service.Service, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	s, ok := p.services[name]
	return s, ok
}

// ServiceNames lists registered services.
func (p *Peer) ServiceNames() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.services))
	for name := range p.services {
		out = append(out, name)
	}
	return out
}

// Resolver returns a read-committed document resolver over this
// peer's store: each resolution returns the newest published root at
// that instant, so two resolutions inside one evaluation may observe
// different epochs. Long-lived consumers (subscriptions) want exactly
// that — each pump sees fresh data. Readers needing a consistent
// multi-document view for the whole evaluation pin a Snapshot and use
// Handle.Resolver instead.
func (p *Peer) Resolver() xquery.DocResolver {
	return func(name string) (*xmltree.Node, error) {
		p.mu.RLock()
		defer p.mu.RUnlock()
		d, ok := p.docs[name]
		if !ok {
			return nil, fmt.Errorf("peer %s: %w: %q", p.ID, ErrNoSuchDoc, name)
		}
		return d.Root, nil
	}
}

// RunQuery evaluates a query against a pinned snapshot of this peer's
// documents. Concurrent writers proceed — they publish new epochs the
// evaluation never observes.
func (p *Peer) RunQuery(q *xquery.Query, args ...[]*xmltree.Node) ([]*xmltree.Node, error) {
	h := p.Snapshot()
	defer h.Release()
	return q.Eval(&xquery.Env{Resolve: h.Resolver()}, args...)
}

// FreshAnchor creates a detached element owned by the peer (indexed,
// with an ID) for use as a stream accumulation target. It belongs to
// the pseudo-document "" and never notifies watchers.
func (p *Peer) FreshAnchor(label string) *xmltree.Node {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := xmltree.NewElement(label)
	n.ID = p.idgen.NextID()
	p.index[n.ID] = indexEntry{node: n, doc: ""}
	return n
}
