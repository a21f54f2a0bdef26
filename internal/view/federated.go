// Cross-deployment view landing. A federated migrate or replicate ships
// a view's already-materialized content from one axmlpeer process to
// another — the receiving deployment usually does not host the base
// documents, so it cannot DefineQuery (materialization would have to
// evaluate at a base host it doesn't have). Adopt is the entry point
// for that case: it swaps the shipped tree in as the view document (a
// first adoption and a re-ship alike), registers the shape and catalog
// entries so local queries rewrite onto the copy (addPlacement), and
// marks the view "adopted" — maintenance is skipped
// (the base lives in another deployment; cross-deployment maintenance
// is the gossip follow-on), so an adopted copy is a point-in-time
// snapshot refreshed only by re-shipping. Materialized is the sending
// side: a snapshot-pinned deep copy of the stored tree.

package view

import (
	"fmt"
	"strings"

	"axml/internal/netsim"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// ModeAdopted marks a view copy landed from another deployment: it is
// served and rewritten onto like any placement, but never refreshed
// locally (its base documents live elsewhere).
const ModeAdopted = "adopted"

// MaterializedView is the shippable form of one view: the defining
// query, a deep copy of the stored tree, and enough metadata for the
// receiving deployment to adopt it.
type MaterializedView struct {
	Name  string
	Query string
	// Root is the stored tree: the axml:view wrapper for selection
	// views, the copied base document itself for full-copy views.
	Root *xmltree.Node
	// Replica marks full-copy views (the adopting side re-registers
	// them under the base document class).
	Replica bool
	// Origin names the member owning the base document, carried along
	// so re-exports keep pointing home ("" for locally defined views).
	Origin string
}

// Materialized returns a shippable copy of the named view's first
// placement. The copy is taken from a pinned store epoch, so
// concurrent writers at the placement peer cannot tear it.
func (m *Manager) Materialized(name string) (MaterializedView, error) {
	st, ok := m.lookup(name)
	if !ok {
		return MaterializedView{}, fmt.Errorf("view: no view %q", name)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.placements) == 0 {
		return MaterializedView{}, fmt.Errorf("view %q: no materialized placement", name)
	}
	p := st.placements[0]
	host, ok := m.sys.Peer(p.at)
	if !ok {
		return MaterializedView{}, fmt.Errorf("view %q: placement peer %q is gone", name, p.at)
	}
	snap := host.Snapshot()
	defer snap.Release()
	root, ok := snap.NodeByID(p.root)
	if !ok {
		return MaterializedView{}, fmt.Errorf("view %q: placement root vanished at %s", name, p.at)
	}
	return MaterializedView{
		Name:    name,
		Query:   st.def.Query.String(),
		Root:    xmltree.DeepCopy(root),
		Replica: st.replica,
		Origin:  st.origin,
	}, nil
}

// Adopt installs an already-materialized view copy shipped from
// another deployment at peer `at`: the tree is installed as the view
// document, the shape registered for query rewriting and the catalog
// entries added (full-copy views register under the base class too, so
// plain doc("base") queries transparently land on the copy). The view
// is marked ModeAdopted — no refresh reaches it, because its base
// documents live in the shipping deployment. Re-adopting an
// existing adopted view at the same peer replaces its content (the
// freshness path of a federated re-ship); origin records the member
// that owns the base.
func (m *Manager) Adopt(name, src string, at netsim.PeerID, root *xmltree.Node, origin string) error {
	if name == "" || strings.ContainsAny(name, " \t\n@") {
		return fmt.Errorf("view: bad name %q", name)
	}
	if root == nil {
		return fmt.Errorf("view %q: adopting empty content", name)
	}
	q, err := xquery.Parse(src)
	if err != nil {
		return fmt.Errorf("view %q: %w", name, err)
	}
	bases := q.DocRefs()
	if len(bases) == 0 {
		return fmt.Errorf("view %q: query reads no document", name)
	}
	target, ok := m.sys.Peer(at)
	if !ok {
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
			mode:    ModeAdopted,
			origin:  origin,
		}
		if matchable {
			st.shape = sh
		}
		m.views[name] = st
	} else if st.def.Query.String() != q.String() {
		m.mu.Unlock()
		return fmt.Errorf("view %q: already defined with a different query", name)
	} else if st.mode != ModeAdopted {
		m.mu.Unlock()
		return fmt.Errorf("view %q: already materialized locally; refusing to adopt over it", name)
	}
	m.mu.Unlock()

	st.mu.Lock()
	defer st.mu.Unlock()
	// The shipped tree arrived whole (the wire's line framing is
	// all-or-nothing), so one swap is the atomic step: either the
	// previous content stays current or the new tree replaces it.
	if err := swapDocument(target, st.def.DocName(), root); err != nil {
		m.forget(st)
		return fmt.Errorf("view %q: adopting at %s: %w", name, at, err)
	}
	for _, p := range st.placements {
		if p.at == at {
			// Re-ship of an existing adopted copy: the catalog
			// registrations stay.
			p.root = root.ID
			m.gen.Add(1)
			return nil
		}
	}
	m.addPlacement(st, &placement{at: at, root: root.ID, baseAt: at})
	return nil
}
