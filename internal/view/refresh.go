// View maintenance. Incremental views reuse xquery.DeltaFor's delta
// provenance through core's change-feed step, the one continuous calls'
// streams take too. Each placement records the base store epoch its
// rows reflect; a refresh pins the base's current epoch (writers
// proceed) and asks the store's change feed what was committed to the
// base document in between. Nothing: the refresh is over. Otherwise the
// view's body is evaluated for the source nodes those commits touched —
// or, where the feed cannot bound them (it is truncated, the source
// path is not a chain of child steps, a commit replaced a whole child
// list), for every source whose subtree digest differs from the
// recorded one — and just the difference ships to the placement:
// additions as new result trees, retractions as x:retract tombstones
// that remove exactly the view rows the vanished source had produced
// (node-id lineage, see placement.prov). This keeps views correct under
// deletions and in-place updates, beyond the insert-only fragment of
// Positive AXML. Every other query shape falls back to full
// re-materialization at the placement peer. Whatever the path, a
// refresh changes a placement in one transaction — one epoch at the
// placement peer: a delta lands as one forest, a full refresh of an
// incremental view ships tombstones for every stored row together with
// the fresh rows, and a recompute view swaps its whole document
// (Tx.Drop, then Tx.Install) — so a reader never finds a view
// half-refreshed, empty or absent. The full refresh also fills every
// new copy: DefineQuery and AddPlacement run it on an empty placement.
//
// A copy changes only when a statement asks for it, in one of three
// ways: a read whose plan uses it refreshes it first (the session's
// WithConsistentView, which every wire QUERYX sets); Refresh,
// RefreshAll or RefreshFull refresh it on request, RefreshFull being
// the force-full baseline (admin healing; TestChurnConvergence holds
// the provenance path to it); or a placement action (DefineQuery,
// AddPlacement, Migrate, Adopt) fills it. Nothing refreshes a copy in
// the background, so a refresh's failure always reaches the caller
// that asked for it.
package view

import (
	"context"
	"errors"
	"fmt"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// Refresh brings every placement of the named view up to date with its
// base documents and returns the number of maintenance operations
// applied (result trees shipped plus retractions landed, or trees
// materialized on the full-refresh path).
func (m *Manager) Refresh(name string) (int, error) {
	return m.RefreshContext(context.Background(), name)
}

// RefreshContext is Refresh under a context: a done context stops the
// maintenance ships mid-refresh (the placement stays consistent — an
// aborted ship rolls the delta state back, so the next refresh
// re-derives what never landed).
func (m *Manager) RefreshContext(ctx context.Context, name string) (int, error) {
	st, ok := m.lookup(name)
	if !ok {
		return 0, fmt.Errorf("view: no view %q", name)
	}
	return m.refreshStateWith(ctx, st, m.refreshPlacement)
}

// RefreshAll refreshes every view (name order) and returns the total
// operations applied.
func (m *Manager) RefreshAll() (int, error) {
	return m.RefreshAllContext(context.Background())
}

// RefreshAllContext is RefreshAll under a context.
func (m *Manager) RefreshAllContext(ctx context.Context) (int, error) {
	total := 0
	var errs []error
	for _, name := range m.names() {
		n, err := m.RefreshContext(ctx, name)
		total += n
		if err != nil {
			errs = append(errs, err)
		}
	}
	return total, errors.Join(errs...)
}

// RefreshFull re-materializes every placement of the named view from
// scratch, bypassing incremental maintenance: the full current result
// is shipped and the provenance state reset. It is the recovery path
// when a placement is suspected of divergence, and the baseline
// TestChurnConvergence holds provenance-based maintenance to.
func (m *Manager) RefreshFull(name string) (int, error) {
	st, ok := m.lookup(name)
	if !ok {
		return 0, fmt.Errorf("view: no view %q", name)
	}
	return m.refreshStateWith(context.Background(), st, m.refreshPlacementFull)
}

// refreshStateWith runs one per-placement refresh function over every
// placement of a view. A failing placement does not abort the loop —
// the remaining placements are still refreshed and the failures are
// joined, so one unreachable replica cannot leave its siblings stale
// indefinitely.
func (m *Manager) refreshStateWith(ctx context.Context, st *state,
	refresh func(context.Context, *state, *placement) (int, error)) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.mode == ModeAdopted {
		// An adopted copy's base documents live in another deployment;
		// it is refreshed by re-shipping (a cluster replicate), never by
		// local maintenance.
		return 0, nil
	}
	total := 0
	var errs []error
	for _, p := range st.placements {
		n, err := refresh(ctx, st, p)
		total += n
		if err != nil {
			errs = append(errs, fmt.Errorf("placement %s: %w", p.at, err))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return total, fmt.Errorf("view %q: %w", st.def.Name, err)
	}
	return total, nil
}

// refreshPlacement updates one materialized copy. Callers hold st.mu.
func (m *Manager) refreshPlacement(ctx context.Context, st *state, p *placement) (int, error) {
	if p.inc == nil || p.dirty {
		return m.refreshPlacementFull(ctx, st, p)
	}
	return m.stepPlacement(ctx, st, p, false)
}

// stepPlacement takes the system's change-feed step (core.System.
// FeedStep) for an incremental placement. Incrementally, it derives
// what the feed names since p.epoch and ships tombstones for the rows
// of the retracted sources (p.prov), then the new rows. In full, a fresh
// evaluator derives from epoch 0 — the whole result — and ships a
// tombstone for every stored row, then every row, so the refresh pays
// full-materialization bytes, the honest baseline; the provenance is
// rebuilt. Either way the forest lands as one epoch at the placement
// peer, with the fresh rows as the trailing children of the view root
// (which is what lets recordProv align them with their derivations),
// and p.epoch advances only once it has landed. Callers hold st.mu.
func (m *Manager) stepPlacement(ctx context.Context, st *state, p *placement, full bool) (int, error) {
	inc, from := p.inc, p.epoch
	var stale []xmltree.NodeID
	if full {
		target, ok := m.sys.Peer(p.at)
		if !ok {
			return 0, fmt.Errorf("placement peer %q is gone", p.at)
		}
		var err error
		if stale, err = target.ChildIDs(p.root); err != nil {
			return 0, err
		}
		inc, _ = xquery.NewDeltaFor(st.def.Query, nil)
		from = 0
	}
	n := 0
	ev, epoch, err := m.sys.FeedStep(ctx, p.baseAt, st.bases[0], inc, from,
		peer.NodeRef{Peer: p.at, Node: p.root}, func(ev *xquery.Events) []*xmltree.Node {
			for _, k := range ev.Retractions {
				stale = append(stale, p.prov[k]...)
			}
			forest := make([]*xmltree.Node, 0, len(stale))
			for _, id := range stale {
				forest = append(forest, core.Retraction(id))
			}
			added := ev.AddedTrees()
			if n = len(added); !full {
				n += len(stale)
			}
			return append(forest, added...)
		})
	if err != nil {
		// A failed ship left the old rows matching the old provenance —
		// unless only the acknowledgment was lost: the rows DID land but
		// their provenance is unknown, so the placement is marked dirty
		// and the next refresh rebuilds it from scratch.
		if errors.Is(err, netsim.ErrAckLost) {
			p.dirty = true
		}
		return 0, err
	}
	if ev == nil {
		return 0, nil
	}
	if full {
		p.inc, p.prov, p.dirty = inc, map[xquery.Lineage][]xmltree.NodeID{}, false
	}
	p.epoch = epoch
	for _, k := range ev.Retractions {
		delete(p.prov, k)
	}
	if err := m.recordProv(p, ev.Additions); err != nil {
		// The rows landed but their provenance is unknown: mark the
		// placement so the next refresh rebuilds it from scratch
		// rather than silently losing track of these rows.
		p.dirty = true
		return n, err
	}
	return n, nil
}

// recordProv maps freshly landed view rows back to the sources that
// produced them. Additions are always appended at the tail of the view
// root in derivation order (see stepPlacement), so the trailing
// children line up with the flattened additions. Callers hold st.mu,
// which serializes all mutations of the view document.
func (m *Manager) recordProv(p *placement, adds []xquery.Derivation) error {
	total := 0
	for _, a := range adds {
		total += len(a.Results)
	}
	if total == 0 {
		return nil
	}
	host, ok := m.sys.Peer(p.at)
	if !ok {
		return fmt.Errorf("placement peer %q is gone", p.at)
	}
	kids, err := host.ChildIDs(p.root)
	if err != nil {
		return fmt.Errorf("reading landed rows: %w", err)
	}
	if len(kids) < total {
		return fmt.Errorf("landed %d rows, view holds %d", total, len(kids))
	}
	tail := kids[len(kids)-total:]
	i := 0
	for _, a := range adds {
		if len(a.Results) == 0 {
			continue
		}
		ids := make([]xmltree.NodeID, len(a.Results))
		copy(ids, tail[i:i+len(a.Results)])
		p.prov[a.Source] = ids
		i += len(a.Results)
	}
	return nil
}

// refreshPlacementFull re-materializes one placement from scratch, as
// one epoch at the placement peer; it also fills a new, empty placement
// (see emptyPlacement). Incremental placements take a full step (see
// stepPlacement); recompute placements re-run the query through the
// normal evaluator and swap the whole document in. A failure leaves the
// old rows and provenance in place. Callers hold st.mu.
func (m *Manager) refreshPlacementFull(ctx context.Context, st *state, p *placement) (int, error) {
	if p.inc != nil {
		return m.stepPlacement(ctx, st, p, true)
	}
	target, ok := m.sys.Peer(p.at)
	if !ok {
		return 0, fmt.Errorf("placement peer %q is gone", p.at)
	}

	// Recompute: re-run the query against the base host and swap the
	// whole document in.
	forest, err := m.evalFull(ctx, st, p.at)
	if err != nil {
		return 0, err
	}
	root, err := viewRoot(st, forest)
	if err != nil {
		return 0, err
	}
	if err := swapDocument(target, st.def.DocName(), root); err != nil {
		return 0, err
	}
	p.root = root.ID
	return len(root.Children), nil
}

// swapDocument installs root as the named document at p in place of the
// one there, if any, as one transaction: a reader sees the old tree or
// the new one, never neither. A nil root publishes the filled staging
// document (see stagingName) instead, node identifiers kept, so a
// placement's root and provenance stay valid.
func swapDocument(p *peer.Peer, name string, root *xmltree.Node) error {
	return p.Write(func(tx *peer.Tx) error {
		var err error
		if root == nil {
			if root, err = tx.Drop(stagingName(name)); err != nil {
				return err
			}
		}
		if _, err := tx.Drop(name); err != nil && !errors.Is(err, peer.ErrNoSuchDoc) {
			return err
		}
		return tx.Install(name, root)
	})
}
