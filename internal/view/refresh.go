// View maintenance. Incremental views reuse xquery.DeltaFor's delta
// provenance. Each placement records the base store epoch its rows
// reflect; a refresh pins the base's current epoch (writers proceed)
// and asks the store's change feed what was committed to the base
// document in between. Nothing: the refresh is over. Otherwise the
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
// re-materialization at the placement peer. AutoRefresh subscribes to
// the base documents' typed change notifications so views follow
// updates without polling; Refresh/RefreshAll are the synchronous entry
// points tests and benchmarks drive deterministically, and RefreshFull
// is the force-full baseline (admin healing; TestChurnConvergence holds
// the provenance path to it).
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
	return m.refreshState(ctx, st)
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

// refreshState refreshes every placement of one view incrementally.
func (m *Manager) refreshState(ctx context.Context, st *state) (int, error) {
	return m.refreshStateWith(ctx, st, m.refreshPlacement)
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
		// it is refreshed by re-shipping (cluster REPLICATE), never by
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
	err := errors.Join(errs...)
	st.lastErr = err
	if err != nil {
		return total, fmt.Errorf("view %q: %w", st.def.Name, err)
	}
	return total, nil
}

// refreshPlacement updates one materialized copy. Callers hold st.mu.
func (m *Manager) refreshPlacement(ctx context.Context, st *state, p *placement) (int, error) {
	if p.inc == nil || p.dirty {
		return m.refreshPlacementFull(ctx, st, p)
	}
	host, ok := m.sys.Peer(p.baseAt)
	if !ok {
		return 0, fmt.Errorf("base peer %q is gone", p.baseAt)
	}
	// Pin an epoch of the base store: the delta derives from a
	// consistent point-in-time view while base writers proceed.
	h := host.Snapshot()
	epoch := h.Epoch()
	commits, bounded := h.Changes(st.bases[0], p.epoch)
	if bounded && len(commits) == 0 {
		h.Release()
		return 0, nil
	}
	env := &xquery.Env{Resolve: h.Resolver()}
	var ev *xquery.Events
	var err error
	if bounded {
		ev, err = p.inc.DeltaEventsFeed(env, commits)
	} else {
		ev, err = p.inc.DeltaEventsWith(env)
	}
	h.Release()
	if err != nil {
		return 0, err
	}
	// Tombstones first, then additions: an in-place update retracts the
	// stale rows before its re-derived rows land, and the fresh rows
	// always end up as the trailing children of the view root (which is
	// what lets recordProv align them with their derivations).
	var forest []*xmltree.Node
	retracted := 0
	for _, k := range ev.Retractions {
		for _, id := range p.prov[k] {
			forest = append(forest, core.Retraction(id))
			retracted++
		}
	}
	added := ev.AddedTrees()
	forest = append(forest, added...)
	// Nothing to ship when every event concerned sources whose rows
	// never materialized (filtered out by the where clause, say); the
	// provenance bookkeeping below still runs.
	if len(forest) > 0 {
		ref := peer.NodeRef{Peer: p.at, Node: p.root}
		if _, err := m.sys.ShipForest(ctx, p.baseAt, ref, forest, 0); err != nil {
			// Undelivered events must be re-emitted by the next refresh,
			// or the view would silently lose these rows (or keep
			// retracted ones forever): the provenance rolls back and
			// p.epoch stays, so the retry reads the same range of the
			// feed. When only the acknowledgment was lost the rows DID
			// land (netsim.ErrAckLost — a canceled reply leg): re-
			// shipping the delta would duplicate them, so the placement
			// is marked dirty and the next refresh rebuilds it from
			// scratch.
			p.inc.Rollback()
			if errors.Is(err, netsim.ErrAckLost) {
				p.dirty = true
			}
			return 0, err
		}
	}
	// The one place the epoch advances: the delta has landed.
	p.epoch = epoch
	m.applyProv(p, ev)
	if err := m.recordProv(p, ev.Additions); err != nil {
		// The rows landed but their provenance is unknown: mark the
		// placement so the next refresh rebuilds it from scratch
		// rather than silently losing track of these rows.
		p.dirty = true
		return retracted + len(added), err
	}
	return retracted + len(added), nil
}

// applyProv drops the provenance entries of retracted sources.
func (m *Manager) applyProv(p *placement, ev *xquery.Events) {
	for _, k := range ev.Retractions {
		delete(p.prov, k)
	}
}

// recordProv maps freshly landed view rows back to the sources that
// produced them. Additions are always appended at the tail of the view
// root in derivation order (see refreshPlacement), so the trailing
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

// refreshPlacementFull re-materializes one placement from scratch.
// Incremental placements re-derive the full result at the base, clear
// the stored rows, ship the complete content (so the refresh pays
// full-materialization bytes, the honest baseline) and rebuild their
// provenance; recompute placements re-run the query through the normal
// evaluator. Callers hold st.mu.
func (m *Manager) refreshPlacementFull(ctx context.Context, st *state, p *placement) (int, error) {
	if p.inc != nil {
		host, ok := m.sys.Peer(p.baseAt)
		if !ok {
			return 0, fmt.Errorf("base peer %q is gone", p.baseAt)
		}
		target, ok := m.sys.Peer(p.at)
		if !ok {
			return 0, fmt.Errorf("placement peer %q is gone", p.at)
		}
		fresh, _ := xquery.NewDeltaFor(st.def.Query, nil)
		h := host.Snapshot()
		ev, err := fresh.DeltaEventsWith(&xquery.Env{Resolve: h.Resolver()})
		epoch := h.Epoch()
		h.Release()
		if err != nil {
			return 0, err
		}
		if err := target.ReplaceChildren(p.root, nil); err != nil {
			return 0, err
		}
		// Epoch zero until the content lands: a blank provenance must
		// meet the full diff, never a feed step.
		p.inc, p.prov, p.epoch = fresh, map[xquery.Lineage][]xmltree.NodeID{}, 0
		trees := ev.AddedTrees()
		if len(trees) > 0 {
			ref := peer.NodeRef{Peer: p.at, Node: p.root}
			if _, err := m.sys.ShipForest(ctx, p.baseAt, ref, trees, 0); err != nil {
				// The view is empty and nothing landed; rolling the
				// fresh provenance back to its blank state makes the
				// next (incremental) refresh re-derive and re-ship the
				// full content, so a transient failure here cannot
				// leave an empty view behind a clean refresh. If only
				// the ack was lost the forest DID land — stay dirty so
				// the next refresh clears the rows before re-shipping.
				fresh.Rollback()
				p.dirty = errors.Is(err, netsim.ErrAckLost)
				return 0, err
			}
			if err := m.recordProv(p, ev.Additions); err != nil {
				p.dirty = true
				return len(trees), err
			}
		}
		p.dirty, p.epoch = false, epoch
		return len(trees), nil
	}

	// Full re-materialization: re-run the query against the base host
	// and swap the placement's content.
	forest, err := m.evalFull(ctx, st, p.at)
	if err != nil {
		return 0, err
	}
	target, ok := m.sys.Peer(p.at)
	if !ok {
		return 0, fmt.Errorf("placement peer %q is gone", p.at)
	}
	if st.replica {
		// The document root itself is the view; swap the whole tree.
		// The old root is kept until the new one is installed: a
		// failure mid-swap reinstalls it, so the view document never
		// disappears from the placement peer.
		root, err := viewRoot(st, forest)
		if err != nil {
			return 0, err
		}
		docName := st.def.DocName()
		old, hadOld := target.Document(docName)
		if hadOld {
			if err := target.RemoveDocument(docName); err != nil {
				return 0, err
			}
		}
		if err := target.InstallDocument(docName, root); err != nil {
			if hadOld {
				if rbErr := target.InstallDocument(docName, old.Root); rbErr != nil {
					return 0, errors.Join(err,
						fmt.Errorf("reinstalling previous content: %w", rbErr))
				}
				// The old root kept its identifiers, so p.root is still
				// valid; the view is stale but present.
			}
			return 0, err
		}
		p.root = root.ID
		return len(root.Children), nil
	}
	if err := target.ReplaceChildren(p.root, forest); err != nil {
		return 0, err
	}
	return len(forest), nil
}

// AutoRefresh subscribes every current and future placement to its
// base documents' change notifications; each change triggers a
// refresh of the affected view. Call Close to stop the watchers.
func (m *Manager) AutoRefresh() {
	m.mu.Lock()
	if m.auto {
		m.mu.Unlock()
		return
	}
	m.auto = true
	states := make([]*state, 0, len(m.views))
	for _, st := range m.views {
		states = append(states, st)
	}
	m.mu.Unlock()
	for _, st := range states {
		st.mu.Lock()
		for _, p := range st.placements {
			m.watchPlacement(st, p)
		}
		st.mu.Unlock()
	}
}

// watchPlacement starts one watcher goroutine per base document of
// the placement when auto-refresh is on (a no-op otherwise, so new
// placements can call it unconditionally). A base that cannot be
// watched — its host is gone or unlocatable — is recorded on the
// view's state and surfaced through Views()/Info.LastError instead of
// being skipped silently, so an auto-refresh that will never fire is
// visible. Callers hold st.mu.
func (m *Manager) watchPlacement(st *state, p *placement) {
	m.mu.Lock()
	done, closed, auto := m.done, m.closed, m.auto
	m.mu.Unlock()
	if !auto || closed || len(p.cancels) > 0 || st.mode == ModeAdopted {
		return
	}
	for _, base := range st.bases {
		hostID := p.baseAt
		if p.inc == nil {
			// Full-refresh views read their bases wherever they live.
			id, err := m.hostOf(base, p.at)
			if err != nil {
				st.lastErr = fmt.Errorf("auto-refresh for placement %s: %w", p.at, err)
				continue
			}
			hostID = id
		}
		host, ok := m.sys.Peer(hostID)
		if !ok {
			st.lastErr = fmt.Errorf("auto-refresh for placement %s: base peer %q is gone", p.at, hostID)
			continue
		}
		ch, cancel := host.Watch(base)
		p.cancels = append(p.cancels, cancel)
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for {
				select {
				case <-done:
					return
				case _, ok := <-ch:
					if !ok {
						return
					}
					// The manager's context bounds auto-refresh work:
					// Close cancels it, stopping in-flight ships.
					_, _ = m.refreshState(m.ctx, st)
				}
			}
		}()
	}
}

// Close stops all auto-refresh watchers and waits for in-flight
// refreshes to finish. The materialized documents stay installed.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.cancel()
	close(m.done)
	states := make([]*state, 0, len(m.views))
	for _, st := range m.views {
		states = append(states, st)
	}
	m.mu.Unlock()
	for _, st := range states {
		st.mu.Lock()
		for _, p := range st.placements {
			for _, cancel := range p.cancels {
				cancel()
			}
			p.cancels = nil
		}
		st.mu.Unlock()
	}
	m.wg.Wait()
}
