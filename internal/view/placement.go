// Placement surgery: the runtime operations the adaptive-placement
// controller (internal/placement) drives. Migrate moves one
// materialized copy to another peer by shipping the current content
// over the from→to link (not by re-evaluating at the base), clones the
// incremental provenance so maintenance stays delta-based after the
// move, AddPlacement/DropPlacement add and remove replicas, and the
// introspection helpers (Placements, PlacementsOf, BaseOf) expose the
// placement map that budgeting and CLI tooling read. Every copy joins
// its view through addPlacement and leaves through removePlacement,
// each bumping the catalog generation, so cached plans re-plan against
// the new placement instead of reading a document that moved away. A
// moved copy fills under its staging name, like a new one (see
// stagingName), so readers at the target never find it short of rows.

package view

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"axml/internal/gendoc"
	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// PlacementInfo describes one materialized copy of one view.
type PlacementInfo struct {
	View string
	At   netsim.PeerID
	// BaseAt is the peer whose copy of the base document feeds this
	// placement's maintenance (incremental placements), or the
	// placement peer itself for recompute placements.
	BaseAt netsim.PeerID
	Mode   string // "incremental" or "recompute"
	Bytes  int64  // serialized size of the materialized document
	Trees  int    // result trees currently materialized
	// Epoch is the base store epoch the copy reflects and Behind the
	// number of commits to the base document since then, read off the
	// store's change feed. Behind is -1 when that is not known: the
	// placement is not maintained from the feed, the feed no longer
	// reaches back to Epoch, or the base is gone.
	Epoch  uint64
	Behind int
}

// Placements returns every materialized placement of every view,
// sorted by view name then peer. The adaptive-placement controller
// reads it for budget accounting; axmlq -placements prints it.
func (m *Manager) Placements() []PlacementInfo {
	var out []PlacementInfo
	for _, name := range m.names() {
		st, ok := m.lookup(name)
		if !ok {
			continue
		}
		st.mu.Lock()
		for _, p := range st.placements {
			info := PlacementInfo{View: name, At: p.at, BaseAt: p.baseAt, Mode: st.mode,
				Epoch: p.epoch, Behind: -1}
			if base, ok := m.sys.Peer(p.baseAt); ok && p.inc != nil {
				h := base.Snapshot()
				if commits, ok := h.Changes(st.bases[0], p.epoch); ok {
					info.Behind = len(commits)
				}
				h.Release()
			}
			if host, ok := m.sys.Peer(p.at); ok {
				if n, ok := host.NodeByID(p.root); ok {
					info.Bytes = int64(n.ByteSize())
					info.Trees = len(n.Children)
				}
			}
			out = append(out, info)
		}
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].View != out[j].View {
			return out[i].View < out[j].View
		}
		return out[i].At < out[j].At
	})
	return out
}

// PlacementsOf returns the peers currently holding a copy of the named
// view, sorted, and whether the view exists.
func (m *Manager) PlacementsOf(name string) ([]netsim.PeerID, bool) {
	st, ok := m.lookup(name)
	if !ok {
		return nil, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]netsim.PeerID, 0, len(st.placements))
	for _, p := range st.placements {
		out = append(out, p.at)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// BaseOf returns the peer hosting the view's primary base document —
// the source maintenance deltas flow from, and the peer a new replica
// materializes at. ok is false when the view does not exist or no peer
// hosts the base.
func (m *Manager) BaseOf(name string) (netsim.PeerID, bool) {
	st, ok := m.lookup(name)
	if !ok {
		return "", false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, p := range st.placements {
		if p.inc != nil {
			return p.baseAt, true
		}
	}
	prefer := st.def.At
	if len(st.placements) > 0 {
		prefer = st.placements[0].at
	}
	host, err := m.hostOf(st.bases[0], prefer)
	if err != nil {
		return "", false
	}
	return host, true
}

// AddPlacement materializes an additional replica of an existing view
// at peer at, the way DefineQuery materializes the first one.
func (m *Manager) AddPlacement(name string, at netsim.PeerID) error {
	st, ok := m.lookup(name)
	if !ok {
		return fmt.Errorf("view: no view %q", name)
	}
	return m.DefineQuery(name, st.def.Query, at)
}

// DropPlacement removes the view's materialized copy at peer at: the
// catalog registrations for that copy disappear and the document is
// uninstalled. Dropping the last copy removes the view
// entirely (queries fall back to the base). The catalog generation is
// bumped so cached plans that read this copy re-plan.
func (m *Manager) DropPlacement(name string, at netsim.PeerID) error {
	st, ok := m.lookup(name)
	if !ok {
		return fmt.Errorf("view: no view %q", name)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	idx := -1
	for i, p := range st.placements {
		if p.at == at {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("view %q: no placement at %s", name, at)
	}
	m.removePlacement(st, idx)
	m.forget(st) // the last copy takes the view with it
	return nil
}

// addPlacement makes a filled copy part of its view: it joins the
// state, the catalog lists its document and the generation is bumped.
// It is the inverse of removePlacement. Callers hold st.mu.
func (m *Manager) addPlacement(st *state, p *placement) {
	st.placements = append(st.placements, p)
	docName := st.def.DocName()
	m.sys.Generics.RegisterDoc(docName, gendoc.DocReplica{Doc: docName, At: p.at})
	if st.replica {
		// A full copy is a legitimate replica of the base document
		// class: d@any resolution may pick it (definition (9)).
		m.sys.Generics.RegisterDoc(st.bases[0], gendoc.DocReplica{Doc: docName, At: p.at})
	}
	m.gen.Add(1)
}

// removePlacement counts the removal, drops one placement's catalog
// entries, bumps the generation, uninstalls its document and splices it
// out of the state. The count comes first, so a reader that finds the
// document gone already sees it. Callers hold st.mu.
func (m *Manager) removePlacement(st *state, idx int) {
	p := st.placements[idx]
	m.mu.Lock()
	m.removed[st.def.Name] = m.removals.Add(1)
	m.mu.Unlock()
	docName := st.def.DocName()
	m.sys.Generics.UnregisterDoc(docName, gendoc.DocReplica{Doc: docName, At: p.at})
	if st.replica {
		m.sys.Generics.UnregisterDoc(st.bases[0], gendoc.DocReplica{Doc: docName, At: p.at})
	}
	m.gen.Add(1)
	if host, ok := m.sys.Peer(p.at); ok {
		_ = host.RemoveDocument(docName)
	}
	st.placements = append(st.placements[:idx], st.placements[idx+1:]...)
}

// forget deletes a view left with no placement: its shape would keep
// rewriting queries onto a document no peer holds. Callers hold st.mu.
func (m *Manager) forget(st *state) {
	if len(st.placements) > 0 {
		return
	}
	m.mu.Lock()
	if m.views[st.def.Name] == st {
		delete(m.views, st.def.Name)
	}
	m.mu.Unlock()
}

// Migrate moves the view's materialized copy from peer `from` to peer
// `to`. The current content ships over the from→to link — the cost the
// decision was priced with — rather than being re-derived at the base;
// incremental placements carry their delta provenance along (the
// DeltaFor state is cloned and the lineage map re-pointed at the
// shipped rows), so maintenance after the move is still incremental.
// The new copy is registered before the old one is dropped.
func (m *Manager) Migrate(ctx context.Context, name string, from, to netsim.PeerID) error {
	if from == to {
		return fmt.Errorf("view %q: migration from %s to itself", name, from)
	}
	st, ok := m.lookup(name)
	if !ok {
		return fmt.Errorf("view: no view %q", name)
	}
	target, ok := m.sys.Peer(to)
	if !ok {
		return fmt.Errorf("view %q: unknown peer %q", name, to)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var old *placement
	oldIdx := -1
	for i, p := range st.placements {
		if p.at == to {
			return fmt.Errorf("view %q: already placed at %s", name, to)
		}
		if p.at == from {
			old, oldIdx = p, i
		}
	}
	if old == nil {
		return fmt.Errorf("view %q: no placement at %s", name, from)
	}
	source, ok := m.sys.Peer(from)
	if !ok {
		return fmt.Errorf("view %q: placement peer %q is gone", name, from)
	}
	// Pin an epoch of the source store and ship it: the outgoing copy's
	// root, child list and shipped trees all come from one immutable
	// snapshot, so concurrent writers at the source cannot tear the
	// migrated content.
	snap := source.Snapshot()
	defer snap.Release()
	oldRoot, ok := snap.NodeByID(old.root)
	if !ok {
		return fmt.Errorf("view %q: placement root vanished at %s", name, from)
	}

	// The copy starts as the old root's empty shell — the axml:view
	// wrapper, or a full copy's base document root — installed under the
	// staging name; the old rows land in it as one transaction and
	// swapDocument publishes it under the view's name, as in DefineQuery.
	staging := stagingName(st.def.DocName())
	newRoot := &xmltree.Node{Kind: oldRoot.Kind, Label: oldRoot.Label, Text: oldRoot.Text,
		Attrs: append([]xmltree.Attr(nil), oldRoot.Attrs...)}
	if err := target.InstallDocument(staging, newRoot); err != nil {
		return fmt.Errorf("view %q: migrating to %s: %w", name, to, err)
	}
	oldKids := make([]xmltree.NodeID, len(oldRoot.Children))
	for i, c := range oldRoot.Children {
		oldKids[i] = c.ID
	}
	if len(oldRoot.Children) > 0 {
		ref := peer.NodeRef{Peer: to, Node: newRoot.ID}
		// Shipping under st.mu is deliberate: the lock is what makes
		// the move atomic against concurrent refresh and placement
		// surgery on this one view, and the receiving peer's handler
		// lands data without ever touching view state, so the hop
		// cannot re-enter st.mu. Cross-view work is unaffected — the
		// lock is per-view, not manager-wide.
		//axmlvet:ignore lockedcall placement move must be atomic vs refresh; remote side never re-enters st.mu
		if _, err := m.sys.ShipForest(ctx, from, ref, oldRoot.Children, 0); err != nil {
			// The move failed in transit; the old placement is intact.
			// On a lost ack the rows may have landed, but the staged
			// copy is removed either way.
			_ = target.RemoveDocument(staging)
			return fmt.Errorf("view %q: shipping placement %s→%s: %w", name, from, to, err)
		}
	}

	newP := &placement{at: to, root: newRoot.ID, baseAt: to, dirty: old.dirty}
	if old.inc != nil {
		newP.inc, newP.epoch = old.inc.Clone(), old.epoch
		newP.baseAt = old.baseAt
		newP.prov = map[xquery.Lineage][]xmltree.NodeID{}
		if err := remapProv(target, newRoot.ID, oldKids, old.prov, newP.prov); err != nil {
			// The rows landed but their provenance could not be carried
			// over; the placement works, the next refresh rebuilds it
			// from scratch instead of trusting the incremental state.
			newP.dirty = true
		}
	}
	if err := swapDocument(target, st.def.DocName(), nil); err != nil {
		_ = target.RemoveDocument(staging)
		return fmt.Errorf("view %q: migrating to %s: %w", name, to, err)
	}
	m.addPlacement(st, newP)
	m.removePlacement(st, oldIdx)
	return nil
}

// remapProv re-points a migrated placement's lineage map at the nodes
// that landed at the new peer. The ship preserves child order, so the
// i-th old child corresponds to the i-th new child.
func remapProv(target *peer.Peer, newRootID xmltree.NodeID, oldKids []xmltree.NodeID,
	oldProv, newProv map[xquery.Lineage][]xmltree.NodeID) error {
	newKids, err := target.ChildIDs(newRootID)
	if err != nil {
		return err
	}
	if len(newKids) != len(oldKids) {
		return errors.New("migrated row count does not match")
	}
	idx := make(map[xmltree.NodeID]xmltree.NodeID, len(oldKids))
	for i, id := range oldKids {
		idx[id] = newKids[i]
	}
	for lineage, ids := range oldProv {
		mapped := make([]xmltree.NodeID, len(ids))
		for i, id := range ids {
			nid, ok := idx[id]
			if !ok {
				return fmt.Errorf("provenance row %d not found among migrated rows", id)
			}
			mapped[i] = nid
		}
		newProv[lineage] = mapped
	}
	return nil
}
