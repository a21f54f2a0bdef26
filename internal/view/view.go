// Package view implements materialized XML views over an AXML system,
// in the style of ViP2P ("XML views in P2P") and LiquidXML: a view is
// a named query materialized at a chosen peer, kept fresh as the base
// documents evolve, and offered to the optimizer as an alternative
// data source. Repeated queries that a view subsumes stop paying
// remote data-shipping costs: the plan search of internal/opt compares
// "ship from base@remote" against "read view@local" under the real
// link model and picks whichever is cheaper.
//
// Three cooperating pieces:
//
//   - Manager (this file): defines views, materializes them by running
//     their query once, installs the result as a document "view:<name>"
//     at the placement peer, and registers it in the gendoc.Catalog so
//     generic resolution can pick the nearest copy. Full-copy views
//     (query `doc("d")`) additionally register under the base class,
//     so plain d@any resolution transparently lands on them.
//   - match.go: a conservative syntactic containment check that
//     rewrites a query to read from a view that subsumes it (same
//     document, path-prefix match, weaker-or-equal predicates).
//   - refresh.go: maintenance. Single-source selection views refresh
//     incrementally through xquery.DeltaFor's delta provenance (the
//     delta is derived at the base from a pinned epoch and the store's
//     change feed, and ships new results plus retraction tombstones
//     for deleted or updated sources); all other shapes fall back to
//     full re-materialization.
package view

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"axml/internal/core"
	"axml/internal/gendoc"
	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// DocPrefix namespaces view documents in peers' stores and in the
// generics catalog, so views never collide with base documents.
const DocPrefix = "view:"

// Definition declares one materialized view: a name, the defining
// query, and the peer at which the result is materialized. Defining
// the same name at several peers creates replicas of one view class.
type Definition struct {
	Name  string
	Query *xquery.Query
	At    netsim.PeerID
}

// DocName returns the document name the view materializes under.
func (d Definition) DocName() string { return DocPrefix + d.Name }

// Info is a point-in-time description of one view for introspection
// (Views, cmd listings).
type Info struct {
	Name       string
	Query      string
	Mode       string // "incremental", "recompute" or "adopted"
	Replica    bool   // full-copy view registered under the base class
	Origin     string // owning member of an adopted view's base (federation)
	Placements []netsim.PeerID
	Trees      int    // result trees currently materialized (first placement)
	LastError  string // most recent auto-refresh failure, if any
}

// placement is one materialized copy of a view.
type placement struct {
	at     netsim.PeerID    // placement peer
	root   xmltree.NodeID   // view root node at the placement peer
	inc    *xquery.DeltaFor // incremental state; nil for recompute views
	baseAt netsim.PeerID    // peer whose copy of the base feeds this placement
	// epoch is the base store epoch inc's provenance and the shipped
	// rows reflect: a refresh reads the base's change feed from here. It
	// advances only once a delta has landed, so a failed ship re-reads
	// the same range; zero means unknown and forces the full diff.
	epoch uint64
	// prov is the delta provenance of incremental placements: for each
	// source lineage at the base, the identifiers of the view-root
	// children it produced at this placement. A retraction of a source
	// removes exactly these children and nothing else.
	prov map[xquery.Lineage][]xmltree.NodeID
	// dirty marks a placement whose materialized rows and provenance
	// are known to disagree (a ship landed but its provenance could
	// not be recorded); the next refresh re-materializes it fully
	// instead of trusting the incremental state.
	dirty   bool
	cancels []func() // watcher cancels (auto-refresh)
}

// state is the manager-side record of one view class.
type state struct {
	mu         sync.Mutex // serializes refreshes of this view
	def        Definition // Query and Name; At is the first placement
	shape      *shape     // matchable normal form; nil when unmatchable
	mode       string
	replica    bool
	origin     string   // owning member of an adopted view's base (federation)
	bases      []string // documents the query reads
	placements []*placement
	lastErr    error
}

// Manager owns the views of one system.
type Manager struct {
	sys *core.System

	// gen counts catalog-shaping changes (Define/Drop). Plan caches
	// key their entries on it: a bumped generation invalidates every
	// cached plan, since a new or dropped view changes which rewrites
	// the optimizer should consider.
	gen atomic.Uint64

	// ctx is canceled by Close: in-flight auto-refreshes and their
	// remote ships stop instead of racing the shutdown.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	views  map[string]*state
	auto   bool
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// NewManager creates an empty view manager for the system.
func NewManager(sys *core.System) *Manager {
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{sys: sys, views: map[string]*state{}, done: make(chan struct{}),
		ctx: ctx, cancel: cancel}
}

// System returns the core system the views are defined over. Layers
// that compose with views — the session pipeline, wire servers — reach
// the evaluator through it.
func (m *Manager) System() *core.System { return m.sys }

// Generation returns the current view-catalog generation. It changes
// whenever a view is defined, replicated or dropped; cached query
// plans from an older generation must be re-optimized.
func (m *Manager) Generation() uint64 { return m.gen.Load() }

// Define parses src and materializes it as a view (see DefineQuery).
func (m *Manager) Define(name, src string, at netsim.PeerID) error {
	q, err := xquery.Parse(src)
	if err != nil {
		return fmt.Errorf("view %q: %w", name, err)
	}
	return m.DefineQuery(name, q, at)
}

// DefineQuery materializes q as view name at peer at: the query is
// evaluated once (network-charged), the result installed as document
// "view:<name>" at the placement peer and registered in the generics
// catalog. Re-defining an existing name at a new peer adds a replica;
// the query must be identical.
func (m *Manager) DefineQuery(name string, q *xquery.Query, at netsim.PeerID) error {
	if name == "" || strings.ContainsAny(name, " \t\n@") {
		return fmt.Errorf("view: bad name %q", name)
	}
	if q.Arity() != 0 {
		return fmt.Errorf("view %q: parameterized queries cannot be materialized", name)
	}
	bases := q.DocRefs()
	if len(bases) == 0 {
		return fmt.Errorf("view %q: query reads no document", name)
	}
	if _, ok := m.sys.Peer(at); !ok {
		return fmt.Errorf("view %q: unknown placement peer %q", name, at)
	}

	m.mu.Lock()
	st := m.views[name]
	if st == nil {
		sh, matchable := viewShape(q)
		st = &state{
			def:     Definition{Name: name, Query: q, At: at},
			bases:   bases,
			replica: matchable && sh.whole,
			mode:    "recompute",
		}
		if matchable {
			st.shape = sh
		}
		if len(bases) == 1 {
			// Per-placement DeltaFor state is created at materialization;
			// here we only probe whether the shape incrementalizes.
			if _, ok := xquery.NewDeltaFor(q, nil); ok && subtreeLocal(q) {
				st.mode = "incremental"
			}
		}
		m.views[name] = st
	} else if st.def.Query.String() != q.String() {
		m.mu.Unlock()
		return fmt.Errorf("view %q: already defined with a different query", name)
	}
	m.mu.Unlock()

	st.mu.Lock()
	defer st.mu.Unlock()
	for _, p := range st.placements {
		if p.at == at {
			return fmt.Errorf("view %q: already placed at %s", name, at)
		}
	}
	// Materializing ships the view's contents while st.mu is held —
	// deliberate, same discipline as Migrate: the lock makes the
	// placement visible-or-absent atomically against refresh, and the
	// receiving peer lands data without touching view state, so the
	// hop cannot re-enter st.mu.
	//axmlvet:ignore lockedcall placement must appear atomically vs refresh; remote side never re-enters st.mu
	p, err := m.materialize(m.ctx, st, at)
	if err != nil {
		// A view with no materialized placement must not linger: its
		// shape would keep rewriting queries onto a document that was
		// never installed.
		if len(st.placements) == 0 {
			m.mu.Lock()
			delete(m.views, name)
			m.mu.Unlock()
		}
		return err
	}
	st.placements = append(st.placements, p)
	docName := st.def.DocName()
	m.sys.Generics.RegisterDoc(docName, gendoc.DocReplica{Doc: docName, At: at})
	if st.replica {
		// A full copy is a legitimate replica of the base document
		// class: d@any resolution may pick it (definition (9)).
		m.sys.Generics.RegisterDoc(st.bases[0], gendoc.DocReplica{Doc: docName, At: at})
	}
	m.gen.Add(1)
	m.watchPlacement(st, p)
	return nil
}

// materialize produces one placement of st at peer at. Incremental
// views are evaluated at the base peer (over a pinned epoch) and only
// the results ship; recompute views are evaluated at the placement
// peer, which fetches the base documents whole (definition (7)).
// Callers hold st.mu.
func (m *Manager) materialize(ctx context.Context, st *state, at netsim.PeerID) (*placement, error) {
	target, ok := m.sys.Peer(at)
	if !ok {
		return nil, fmt.Errorf("view %q: unknown peer %q", st.def.Name, at)
	}
	docName := st.def.DocName()
	if st.mode == "incremental" {
		baseAt, err := m.hostOf(st.bases[0], at)
		if err != nil {
			return nil, fmt.Errorf("view %q: %w", st.def.Name, err)
		}
		host, _ := m.sys.Peer(baseAt)
		inc, _ := xquery.NewDeltaFor(st.def.Query, nil)
		h := host.Snapshot()
		initial, err := inc.DeltaEventsWith(&xquery.Env{Resolve: h.Resolver()})
		epoch := h.Epoch()
		h.Release()
		if err != nil {
			return nil, fmt.Errorf("view %q: materializing: %w", st.def.Name, err)
		}
		root := xmltree.E("axml:view", xmltree.A("name", st.def.Name))
		if err := target.InstallDocument(docName, root); err != nil {
			return nil, fmt.Errorf("view %q: %w", st.def.Name, err)
		}
		p := &placement{at: at, root: root.ID, inc: inc, baseAt: baseAt, epoch: epoch,
			prov: map[xquery.Lineage][]xmltree.NodeID{}}
		if trees := initial.AddedTrees(); len(trees) > 0 {
			ref := peer.NodeRef{Peer: at, Node: root.ID}
			if _, err := m.sys.ShipForest(ctx, baseAt, ref, trees, 0); err != nil {
				inc.Rollback()
				return nil, fmt.Errorf("view %q: shipping initial state: %w", st.def.Name, err)
			}
			if err := m.recordProv(p, initial.Additions); err != nil {
				return nil, fmt.Errorf("view %q: %w", st.def.Name, err)
			}
		}
		return p, nil
	}

	forest, err := m.evalFull(ctx, st, at)
	if err != nil {
		return nil, fmt.Errorf("view %q: materializing: %w", st.def.Name, err)
	}
	root, err := viewRoot(st, forest)
	if err != nil {
		return nil, err
	}
	if err := target.InstallDocument(docName, root); err != nil {
		return nil, fmt.Errorf("view %q: %w", st.def.Name, err)
	}
	return &placement{at: at, root: root.ID, baseAt: at}, nil
}

// evalFull evaluates the view query for a full (re-)materialization at
// peer at. The evaluation is delegated to a peer that physically hosts
// the primary base document — never resolved through the generics
// catalog, where the view's own replica registration would short-
// circuit a refresh into reading its stale self. The delegation and
// the shipped results are network-charged as usual.
func (m *Manager) evalFull(ctx context.Context, st *state, at netsim.PeerID) ([]*xmltree.Node, error) {
	host, err := m.hostOf(st.bases[0], at)
	if err != nil {
		if st.replica {
			// Resolving through the catalog would find this view's own
			// replica registration and copy its stale self.
			return nil, fmt.Errorf("base document %q is not hosted by any peer", st.bases[0])
		}
		// The base exists only as a catalog class; evaluate in place.
		host = at
	}
	var e core.Expr = &core.Query{Q: st.def.Query, At: at}
	if host != at {
		e = &core.EvalAt{At: host, E: &core.Query{Q: st.def.Query, At: host}}
	}
	res, err := m.sys.EvalContext(ctx, at, e)
	if err != nil {
		return nil, err
	}
	return res.Forest, nil
}

// viewRoot builds the stored tree for a recompute materialization:
// full-copy views install the copied document itself (so base-relative
// paths keep working), other views wrap the result forest.
func viewRoot(st *state, forest []*xmltree.Node) (*xmltree.Node, error) {
	if st.replica {
		if len(forest) != 1 {
			return nil, fmt.Errorf("view %q: full-copy view produced %d trees", st.def.Name, len(forest))
		}
		return forest[0], nil
	}
	root := xmltree.E("axml:view", xmltree.A("name", st.def.Name))
	for _, n := range forest {
		root.AppendChild(n)
	}
	return root, nil
}

// hostOf locates a peer hosting the named base document, preferring
// the given peer, then scanning in deterministic order.
func (m *Manager) hostOf(doc string, prefer netsim.PeerID) (netsim.PeerID, error) {
	if p, ok := m.sys.Peer(prefer); ok && p.HasDocument(doc) {
		return prefer, nil
	}
	for _, id := range m.sys.Peers() {
		if p, ok := m.sys.Peer(id); ok && p.HasDocument(doc) {
			return id, nil
		}
	}
	return "", fmt.Errorf("no peer hosts base document %q", doc)
}

// Drop removes a view: every placement's document is uninstalled and
// its catalog registrations removed.
func (m *Manager) Drop(name string) error {
	m.mu.Lock()
	st, ok := m.views[name]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("view: no view %q", name)
	}
	delete(m.views, name)
	m.mu.Unlock()
	m.gen.Add(1)

	st.mu.Lock()
	defer st.mu.Unlock()
	docName := st.def.DocName()
	for _, p := range st.placements {
		for _, cancel := range p.cancels {
			cancel()
		}
		m.sys.Generics.UnregisterDoc(docName, gendoc.DocReplica{Doc: docName, At: p.at})
		if st.replica {
			m.sys.Generics.UnregisterDoc(st.bases[0], gendoc.DocReplica{Doc: docName, At: p.at})
		}
		if host, ok := m.sys.Peer(p.at); ok {
			_ = host.RemoveDocument(docName)
		}
	}
	st.placements = nil
	return nil
}

// Views describes the defined views, sorted by name.
func (m *Manager) Views() []Info {
	m.mu.Lock()
	states := make([]*state, 0, len(m.views))
	for _, st := range m.views {
		states = append(states, st)
	}
	m.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].def.Name < states[j].def.Name })
	out := make([]Info, 0, len(states))
	for _, st := range states {
		st.mu.Lock()
		info := Info{
			Name:    st.def.Name,
			Query:   st.def.Query.String(),
			Mode:    st.mode,
			Replica: st.replica,
			Origin:  st.origin,
		}
		if st.lastErr != nil {
			info.LastError = st.lastErr.Error()
		}
		for _, p := range st.placements {
			info.Placements = append(info.Placements, p.at)
		}
		if len(st.placements) > 0 {
			if host, ok := m.sys.Peer(st.placements[0].at); ok {
				if n, ok := host.NodeByID(st.placements[0].root); ok {
					info.Trees = len(n.Children)
				}
			}
		}
		st.mu.Unlock()
		out = append(out, info)
	}
	return out
}

// Definitions returns the view definitions (first placement each),
// sorted by name.
func (m *Manager) Definitions() []Definition {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Definition, 0, len(m.views))
	for _, st := range m.views {
		out = append(out, st.def)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// lookup returns the state of a view.
func (m *Manager) lookup(name string) (*state, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.views[name]
	return st, ok
}

// names returns the view names sorted.
func (m *Manager) names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.views))
	for name := range m.views {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
