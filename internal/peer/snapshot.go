package peer

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// Handle pins one epoch of a peer's document store: an immutable,
// point-in-time view of every document the peer held when Snapshot was
// called. Published roots are never mutated in place (writers copy the
// root-to-target spine and swap the document's root pointer), so a
// handle's trees stay valid and race-free for as long as the handle is
// referenced — readers stream from them without any locking while
// writers proceed.
//
// A handle must be Released when the reader is done (Release is
// idempotent and safe to call from any goroutine). Releasing drops the
// epoch's pin so the observability gauges stop counting it; the trees
// themselves are reclaimed by the garbage collector once the last
// reference (handle or in-flight cursor) is gone. The epochpin
// analyzer (cmd/axmlvet) checks that every Snapshot call has a Release
// on all paths.
type Handle struct {
	p     *Peer
	epoch uint64
	roots map[string]*published

	mu       sync.Mutex
	released bool
}

// Snapshot pins the current epoch and returns a handle over it. The
// call takes the peer's read lock only for the duration of capturing
// the root pointers; every subsequent read through the handle is
// lock-free.
func (p *Peer) Snapshot() *Handle {
	p.mu.RLock()
	roots := make(map[string]*published, len(p.docs))
	for name, d := range p.docs {
		roots[name] = d.pub
	}
	epoch := p.epoch
	p.mu.RUnlock()

	p.pinMu.Lock()
	pi := p.pins[epoch]
	if pi == nil {
		pi = &pin{at: time.Now()}
		p.pins[epoch] = pi
	}
	pi.count++
	p.pinMu.Unlock()
	return &Handle{p: p, epoch: epoch, roots: roots}
}

// Epoch returns the epoch this handle pins. Epochs increase by one per
// committed transaction across the peer's whole store.
func (h *Handle) Epoch() uint64 { return h.epoch }

// Owner returns the peer this handle snapshots.
func (h *Handle) Owner() *Peer { return h.p }

// Root returns the pinned root of the named document. The returned
// tree is immutable; it reflects the document exactly as of the
// handle's epoch regardless of later writes.
func (h *Handle) Root(name string) (*xmltree.Node, error) {
	r, ok := h.roots[name]
	if !ok {
		return nil, fmt.Errorf("peer %s: %w: %q", h.p.ID, ErrNoSuchDoc, name)
	}
	return r.root, nil
}

// NodeCount returns Root(name).NodeCount() without walking the tree
// again: the count is taken once per published root and shared by
// every handle that pins it.
func (h *Handle) NodeCount(name string) (int, error) {
	r, ok := h.roots[name]
	if !ok {
		return 0, fmt.Errorf("peer %s: %w: %q", h.p.ID, ErrNoSuchDoc, name)
	}
	return r.nodeCount(), nil
}

// Index returns the value index of shape s over the named document,
// when root is the root the handle pins for it: built by the first
// reader of that root and shared by every handle that pins it. ok is
// false for any other root (a copy fetched from elsewhere is scanned)
// and for a shape that does not fit the root's budget.
func (h *Handle) Index(name string, root *xmltree.Node, s xquery.Shape) (*xquery.ValueIndex, bool) {
	r, pinned := h.roots[name]
	if !pinned || r.root != root {
		return nil, false
	}
	return r.index(s)
}

// Budget returns the memo budget of the named document's pinned root
// (xmltree.AppendStored), or nil when the handle holds no such document.
func (h *Handle) Budget(name string) xmltree.Budget {
	if r, ok := h.roots[name]; ok {
		return r
	}
	return nil
}

// Changes returns what the transactions that wrote the named document
// after epoch `after`, up to the handle's own epoch, touched: one commit
// record per edit, oldest first, the edits of one transaction together
// under its epoch. It is the change feed a consumer whose state reflects
// `after` needs to reach what this handle pins. ok is false when the feed cannot say — it is bounded and
// no longer reaches back to `after`, or the document was removed or
// installed again since — and the consumer must re-derive from Root. A
// document unchanged since `after` answers (nil, true) without taking
// the peer's lock.
func (h *Handle) Changes(name string, after uint64) (commits []xmltree.Commit, ok bool) {
	r, pinned := h.roots[name]
	if !pinned {
		return nil, false
	}
	if r.epoch <= after {
		return nil, true
	}
	h.p.mu.RLock()
	defer h.p.mu.RUnlock()
	d, live := h.p.docs[name]
	if !live {
		return nil, false
	}
	return d.feed.since(after, h.epoch)
}

// Docs lists the documents captured by the handle, sorted by name.
func (h *Handle) Docs() []string {
	out := make([]string, 0, len(h.roots))
	for name := range h.roots {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NodeByID finds the node with the given identifier within the pinned
// epoch. Unlike Peer.NodeByID it searches the snapshot's trees (a walk,
// not an index probe), so it returns the node as of the handle's epoch
// even if the live document has since changed or dropped it.
func (h *Handle) NodeByID(id xmltree.NodeID) (*xmltree.Node, bool) {
	for _, r := range h.roots {
		if n := r.root.FindByID(id); n != nil {
			return n, true
		}
	}
	return nil, false
}

// Resolver adapts the handle to the xquery document-resolution
// interface. All resolutions answer from the pinned epoch.
func (h *Handle) Resolver() xquery.DocResolver {
	return h.Root
}

// Release drops the handle's pin on its epoch. It is idempotent; after
// the last release of an epoch the observability gauges stop counting
// it and its unshared subtrees become garbage once in-flight readers
// drop their references.
func (h *Handle) Release() {
	h.mu.Lock()
	done := h.released
	h.released = true
	h.mu.Unlock()
	if done {
		return
	}
	p := h.p
	p.pinMu.Lock()
	if pi := p.pins[h.epoch]; pi != nil {
		pi.count--
		if pi.count <= 0 {
			delete(p.pins, h.epoch)
		}
	}
	p.pinMu.Unlock()
}

// pin tracks the live handles over one epoch, for the obs gauges.
type pin struct {
	count int
	at    time.Time
}

// Epoch returns the peer's current epoch.
func (p *Peer) Epoch() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.epoch
}

// PinnedEpochs reports how many distinct epochs currently have at
// least one unreleased handle. It backs the peer.epochs.pinned gauge;
// a value that only grows under churn means a reader is leaking
// handles.
func (p *Peer) PinnedEpochs() int {
	p.pinMu.Lock()
	defer p.pinMu.Unlock()
	return len(p.pins)
}

// OldestPinAge returns how long ago the oldest still-pinned epoch was
// first pinned, or zero when nothing is pinned. It backs the
// peer.epochs.oldest_pin_ms gauge: a steadily climbing age identifies
// the slow (or stuck) reader retaining history.
func (p *Peer) OldestPinAge() time.Duration {
	p.pinMu.Lock()
	defer p.pinMu.Unlock()
	var oldest time.Time
	for _, pi := range p.pins {
		if oldest.IsZero() || pi.at.Before(oldest) {
			oldest = pi.at
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest)
}
