// Package peer implements the peer runtime of the AXML framework
// (paper §2): a context of computation hosting named documents and
// services. A peer owns its trees — every node of an installed
// document gets an identifier unique within the peer, so that global
// node references n@p (the targets of forw lists and send expressions)
// can be resolved.
//
// The store changes only through transactions (Peer.Write, tx.go). A
// transaction's edits — a statement's selection, a shipped forest with
// its tombstones, one single-node write, a document installed, dropped
// or swapped for another — copy each root-to-target spine node once,
// and publish together as one store epoch: one new root per document
// written, one change-feed record per edit, one wake per watcher.
// Published trees are never written, so a Snapshot reader and a live
// Resolver reader see a transaction entirely or not at all; a failed
// transaction leaves no trace.
package peer

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

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

// document is a named tree d@p: its newest published root, replaced —
// never mutated in place — by each transaction that writes it, and what
// the recent commits to it touched.
type document struct {
	pub  *published
	feed feed
}

// published is one published root with the epoch that published it and
// what is known about it, each taken by the first reader that asks: its
// node count (the evaluator's cost accounting asks on every query), its
// serialized size (the optimizer asks on every plan miss) and its value
// indexes (a point lookup asks for its shape's). A published tree is
// immutable, so none of them can go stale.
type published struct {
	root      *xmltree.Node
	epoch     uint64
	nodesOnce sync.Once
	nodes     int
	bytesOnce sync.Once
	bytes     int

	idxMu   sync.Mutex
	indexes map[xquery.Shape]*xquery.ValueIndex // nil: the shape did not fit
	// charged is the indexes' entries plus one per shape asked for. It
	// never exceeds nodeCount(), so shapes a client invents cannot grow
	// a root's indexes past the size of its tree.
	charged int
	kept    atomic.Int64 // bytes charged to Keep; what its nodes keep is at most byteSize()
}

func (p *published) nodeCount() int {
	p.nodesOnce.Do(func() { p.nodes = p.root.NodeCount() })
	return p.nodes
}

func (p *published) byteSize() int {
	p.bytesOnce.Do(func() { p.bytes = p.root.ByteSize() })
	return p.bytes
}

// Keep is the root's xmltree.Budget: once byteSize is spent, a refused
// charge included, its rows are encoded afresh.
func (p *published) Keep(size int) bool { return p.kept.Add(int64(size)) <= int64(p.byteSize()) }

// index returns shape s's value index over the root, built by its first
// reader while later ones wait; ok is false when it does not fit the
// root's budget.
func (p *published) index(s xquery.Shape) (*xquery.ValueIndex, bool) {
	budget := p.nodeCount()
	p.idxMu.Lock()
	defer p.idxMu.Unlock()
	if idx, asked := p.indexes[s]; asked || p.charged >= budget {
		return idx, idx != nil
	}
	if p.indexes == nil {
		p.indexes = map[xquery.Shape]*xquery.ValueIndex{}
	}
	p.charged++
	idx, n, _ := s.Build(p.root, budget-p.charged)
	p.indexes[s] = idx
	p.charged += n
	return idx, idx != nil
}

// Change wakes a watcher: a transaction wrote the named document and
// published it as Epoch. Watch channels coalesce under backpressure — a
// received Change means "at least this happened since you last looked"
// — so consumers that need to know what was written read the document's
// change feed (Handle.Changes), which is exact, ordered and bounded.
type Change struct {
	Doc   string
	Epoch uint64
}

// feedLen bounds the change feed of one document, in transactions. A
// consumer that falls further behind than this re-derives from the
// document, which costs what every refresh cost before the feed existed.
const feedLen = 256

// feed is the change feed of one document: a ring holding, for each of
// the last feedLen transactions that wrote it, one commit record per
// edit (all carrying the transaction's epoch), oldest at ring[start].
// Every commit to the document after epoch floor is in the ring, so a
// reader whose state reflects an epoch at or past floor can catch up
// from it alone.
type feed struct {
	ring  [][]xmltree.Commit
	start int
	floor uint64
}

func (f *feed) push(tx []xmltree.Commit) {
	if len(f.ring) < feedLen {
		f.ring = append(f.ring, tx)
		return
	}
	f.floor = f.ring[f.start][0].Epoch
	f.ring[f.start] = tx
	f.start = (f.start + 1) % feedLen
}

// since returns the commits with after < Epoch ≤ upto, oldest first;
// ok is false when the ring no longer reaches back to after.
func (f *feed) since(after, upto uint64) (out []xmltree.Commit, ok bool) {
	if after < f.floor {
		return nil, false
	}
	for i := range f.ring {
		tx := f.ring[(f.start+i)%len(f.ring)]
		if tx[0].Epoch > upto {
			break
		}
		if tx[0].Epoch > after {
			out = append(out, tx...)
		}
	}
	return out, true
}

// indexEntry records where a node currently lives: the newest-epoch
// node carrying the ID, its owning document, and its parent's ID. A
// node has no parent pointer — copy-on-write shares subtrees between
// epochs, so a shared node has a parent in each — and ancestry is read
// from these parent IDs.
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
	docs     map[string]*document
	services map[string]*service.Service
	idgen    xmltree.SeqIDGen
	index    map[xmltree.NodeID]indexEntry
	watchers map[string][]chan Change
	// epoch counts committed transactions across the whole store. Every
	// one publishes a new root for each document it wrote and bumps it;
	// Snapshot captures it so readers can name the version they saw.
	epoch uint64
	// tx is the transaction Write hands to its callback, kept between
	// writes so a small one allocates nothing of its own.
	tx Tx

	// pinMu guards the epoch pin table (see snapshot.go).
	pinMu sync.Mutex
	pins  map[uint64]*pin
}

// New creates an empty peer.
func New(id netsim.PeerID) *Peer {
	return &Peer{
		ID:       id,
		docs:     map[string]*document{},
		services: map[string]*service.Service{},
		index:    map[xmltree.NodeID]indexEntry{},
		watchers: map[string][]chan Change{},
		pins:     map[uint64]*pin{},
	}
}

// InstallDocument installs root as document name: a transaction of one
// Tx.Install.
func (p *Peer) InstallDocument(name string, root *xmltree.Node) error {
	return p.Write(func(tx *Tx) error { return tx.Install(name, root) })
}

// RemoveDocument uninstalls a document and de-indexes its nodes: a
// transaction of one Tx.Drop.
func (p *Peer) RemoveDocument(name string) error {
	return p.Write(func(tx *Tx) error { _, err := tx.Drop(name); return err })
}

// DocumentBytes returns the serialized size of the named document as
// currently published — the catalog statistic the optimizer prices
// transfers with. The size is taken once per published root, by the
// first caller after the transaction that published it; only the
// pointer is read under the lock, so a writer never waits on the walk.
func (p *Peer) DocumentBytes(name string) (int, bool) {
	p.mu.RLock()
	d, ok := p.docs[name]
	if !ok {
		p.mu.RUnlock()
		return 0, false
	}
	pub := d.pub
	p.mu.RUnlock()
	return pub.byteSize(), true
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

// AddChild appends tree as a new child of the identified node: a
// transaction of one Tx.Append. This is the landing operation of
// definition (4): the sent tree is "added as a child of n@p".
func (p *Peer) AddChild(parent xmltree.NodeID, tree *xmltree.Node) error {
	return p.Write(func(tx *Tx) error { return tx.Append(parent, tree) })
}

// ReplaceChildByID swaps the identified node for tree in place: a
// transaction of one Tx.Replace.
func (p *Peer) ReplaceChildByID(parent, child xmltree.NodeID, tree *xmltree.Node) error {
	return p.Write(func(tx *Tx) error { return tx.Replace(parent, child, tree) })
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
// caller turns the IDs into the edits of one transaction.
func (p *Peer) SelectIDs(q *xquery.Query) ([]xmltree.NodeID, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	env := &xquery.Env{Resolve: func(name string) (*xmltree.Node, error) {
		d, ok := p.docs[name]
		if !ok {
			return nil, fmt.Errorf("peer %s: %w: %q", p.ID, ErrNoSuchDoc, name)
		}
		return d.pub.root, nil
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

// indexSubtree indexes n and its descendants, tracking parent IDs.
func (p *Peer) indexSubtree(n *xmltree.Node, doc string, parent xmltree.NodeID) {
	p.index[n.ID] = indexEntry{node: n, doc: doc, parent: parent}
	for _, c := range n.Children {
		p.indexSubtree(c, doc, n.ID)
	}
}

// deindex drops n and its descendants from the index.
func (p *Peer) deindex(n *xmltree.Node) {
	n.Walk(func(m *xmltree.Node) bool {
		delete(p.index, m.ID)
		return true
	})
}

// Watch returns a channel receiving a Change whenever a transaction
// writes the named document, and a cancel function. Changes coalesce: a
// slow consumer keeps at most one pending, so a received Change is a
// trigger, never a replay of what was written.
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
// different epochs. Readers needing a consistent multi-document view
// for the whole evaluation pin a Snapshot and use Handle.Resolver.
func (p *Peer) Resolver() xquery.DocResolver {
	return func(name string) (*xmltree.Node, error) {
		p.mu.RLock()
		defer p.mu.RUnlock()
		d, ok := p.docs[name]
		if !ok {
			return nil, fmt.Errorf("peer %s: %w: %q", p.ID, ErrNoSuchDoc, name)
		}
		return d.pub.root, nil
	}
}

// RunQuery evaluates a query against a pinned snapshot of this peer's
// documents. Concurrent writers proceed — they publish new epochs the
// evaluation never observes.
func (p *Peer) RunQuery(q *xquery.Query, args ...[]*xmltree.Node) ([]*xmltree.Node, error) {
	h := p.Snapshot()
	defer h.Release()
	return q.Eval(&xquery.Env{Resolve: h.Resolver(), Index: h}, args...)
}

// FreshAnchor creates a detached element owned by the peer (indexed,
// with an ID) for use as a landing target. It belongs to the
// pseudo-document "": transactions write under it like under a
// document root, but publish no epoch and notify no watchers, so its
// content is read through NodeByID.
func (p *Peer) FreshAnchor(label string) *xmltree.Node {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := xmltree.NewElement(label)
	n.ID = p.idgen.NextID()
	p.index[n.ID] = indexEntry{node: n, doc: ""}
	return n
}
