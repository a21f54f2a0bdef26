package view

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// testSystem3 builds clientA+clientB+data on a WAN with a catalog at
// data.
func testSystem3(t *testing.T, items int) *core.System {
	t.Helper()
	net := netsim.New()
	netsim.Uniform(net, []netsim.PeerID{"clientA", "clientB", "data"}, wan)
	sys := core.NewSystem(net)
	sys.MustAddPeer("clientA")
	sys.MustAddPeer("clientB")
	data := sys.MustAddPeer("data")
	if err := data.InstallDocument("catalog", workload.Catalog(workload.CatalogSpec{
		Items: items, PriceMax: 1000, DescWords: 4, Seed: 7})); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestMigrateShipsContentAndKeepsIncrementalMaintenance: migrating an
// incremental placement moves the materialized rows over the from→to
// link, keeps the result multiset intact, and carries the delta
// provenance along — a post-move deletion retracts exactly the row the
// vanished source had produced, without a full rebuild.
func TestMigrateShipsContentAndKeepsIncrementalMaintenance(t *testing.T) {
	sys := testSystem3(t, 120)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()
	vsrc := `for $i in doc("catalog")/item where $i/price < 500 return $i`
	if err := m.Define("cheap", vsrc, "clientA"); err != nil {
		t.Fatal(err)
	}
	before := viewTrees(t, sys, "clientA", "cheap")
	beforeCopy := make([]*xmltree.Node, len(before))
	for i, n := range before {
		beforeCopy[i] = xmltree.DeepCopy(n)
	}
	genBefore := m.Generation()
	preStats := sys.Net.Stats()
	epochBefore := m.Placements()[0].Epoch

	if err := m.Migrate(context.Background(), "cheap", "clientA", "clientB"); err != nil {
		t.Fatal(err)
	}
	// The base epoch travels with the cloned provenance: the moved copy
	// catches up from the change feed, not from a full diff.
	if moved := m.Placements()[0]; moved.Epoch != epochBefore || moved.Behind != 0 {
		t.Errorf("migrated placement reports epoch %d behind %d, want epoch %d behind 0",
			moved.Epoch, moved.Behind, epochBefore)
	}
	if m.Generation() == genBefore {
		t.Error("migration must bump the catalog generation")
	}
	clientA, _ := sys.Peer("clientA")
	if clientA.HasDocument(DocPrefix + "cheap") {
		t.Error("old placement document still installed")
	}
	after := viewTrees(t, sys, "clientB", "cheap")
	if !sameMultiset(beforeCopy, after) {
		t.Fatalf("migration changed the view content: %d trees vs %d", len(beforeCopy), len(after))
	}
	if ps, ok := m.PlacementsOf("cheap"); !ok || len(ps) != 1 || ps[0] != "clientB" {
		t.Fatalf("PlacementsOf = %v, %v", ps, ok)
	}
	st := sys.Net.Stats()
	moved := st.PerLink["clientA"]["clientB"].Bytes - preStats.PerLink["clientA"]["clientB"].Bytes
	if moved <= 0 {
		t.Error("migration should ship the content over the from→to link")
	}
	if fromData := st.PerLink["data"]["clientB"].Bytes - preStats.PerLink["data"]["clientB"].Bytes; fromData != 0 {
		t.Errorf("migration re-derived at the base (%d bytes data→clientB), want a from→to ship", fromData)
	}

	// Maintenance after the move is still incremental and retraction-
	// correct: delete one matching base item, refresh, and the view must
	// equal ground truth without a full re-ship.
	data, _ := sys.Peer("data")
	catalog, _ := data.Document("catalog")
	var victim xmltree.NodeID
	for _, it := range catalog.Root.ChildElementsByLabel("item") {
		price := it.FirstChildElement("price")
		if price != nil && len(price.Children) > 0 {
			var v int
			if _, err := fmt.Sscan(price.TextContent(), &v); err == nil && v < 500 {
				victim = it.ID
				break
			}
		}
	}
	if victim == 0 {
		t.Fatal("no matching item to delete")
	}
	if err := data.RemoveChildByID(catalog.Root.ID, victim); err != nil {
		t.Fatal(err)
	}
	preRefresh := sys.Net.Stats()
	if _, err := m.Refresh("cheap"); err != nil {
		t.Fatal(err)
	}
	truth, err := data.RunQuery(xquery.MustParse(vsrc))
	if err != nil {
		t.Fatal(err)
	}
	got := viewTrees(t, sys, "clientB", "cheap")
	if !sameMultiset(got, truth) {
		t.Fatalf("post-migration refresh diverged: %d rows vs truth %d", len(got), len(truth))
	}
	if len(got) != len(beforeCopy)-1 {
		t.Errorf("expected exactly one retracted row: %d → %d", len(beforeCopy), len(got))
	}
	refreshBytes := sys.Net.Stats().Bytes - preRefresh.Bytes
	viewBytes := int64(0)
	for _, n := range got {
		viewBytes += int64(n.ByteSize())
	}
	if refreshBytes >= viewBytes {
		t.Errorf("refresh shipped %d bytes for one retraction (view is %d bytes): provenance was lost in the move",
			refreshBytes, viewBytes)
	}
}

// TestMigrateReplicaViewMovesBaseRegistration: a full-copy view is a
// catalog replica of its base class; migrating it moves both catalog
// registrations.
func TestMigrateReplicaViewMovesBaseRegistration(t *testing.T) {
	sys := testSystem3(t, 40)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()
	if err := m.Define("copy", `doc("catalog")`, "clientA"); err != nil {
		t.Fatal(err)
	}
	if err := m.Migrate(context.Background(), "copy", "clientA", "clientB"); err != nil {
		t.Fatal(err)
	}
	var ats []netsim.PeerID
	for _, rep := range sys.Generics.DocReplicas("catalog") {
		if rep.Doc == DocPrefix+"copy" {
			ats = append(ats, rep.At)
		}
	}
	if len(ats) != 1 || ats[0] != "clientB" {
		t.Fatalf("base-class registrations after migration = %v, want [clientB]", ats)
	}
	data, _ := sys.Peer("data")
	truth, _ := data.Document("catalog")
	clientB, _ := sys.Peer("clientB")
	got, ok := clientB.Document(DocPrefix + "copy")
	if !ok {
		t.Fatal("migrated replica missing at clientB")
	}
	if !xmltree.Equal(truth.Root, got.Root) {
		t.Error("migrated full-copy view is not equivalent to the base document")
	}
}

// TestAddAndDropPlacement: replicas add and drop one at a time;
// dropping the last copy removes the view.
func TestAddAndDropPlacement(t *testing.T) {
	sys := testSystem3(t, 60)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()
	if err := m.Define("cheap",
		`for $i in doc("catalog")/item where $i/price < 500 return $i`, "clientA"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPlacement("cheap", "clientB"); err != nil {
		t.Fatal(err)
	}
	ps, _ := m.PlacementsOf("cheap")
	if len(ps) != 2 {
		t.Fatalf("placements = %v", ps)
	}
	infos := m.Placements()
	if len(infos) != 2 || infos[0].Bytes == 0 {
		t.Fatalf("Placements() = %+v", infos)
	}
	if base, ok := m.BaseOf("cheap"); !ok || base != "data" {
		t.Fatalf("BaseOf = %v, %v", base, ok)
	}
	gen := m.Generation()
	if err := m.DropPlacement("cheap", "clientA"); err != nil {
		t.Fatal(err)
	}
	if m.Generation() == gen {
		t.Error("DropPlacement must bump the generation")
	}
	clientA, _ := sys.Peer("clientA")
	if clientA.HasDocument(DocPrefix + "cheap") {
		t.Error("dropped placement document still installed")
	}
	if ps, _ := m.PlacementsOf("cheap"); len(ps) != 1 || ps[0] != "clientB" {
		t.Fatalf("placements after drop = %v", ps)
	}
	if err := m.DropPlacement("cheap", "clientB"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.PlacementsOf("cheap"); ok {
		t.Error("dropping the last placement should remove the view")
	}
	if vs := m.Views(); len(vs) != 0 {
		t.Errorf("Views() after last drop = %+v", vs)
	}
}

// TestMigrateErrors: bad moves are rejected without disturbing the
// placement.
func TestMigrateErrors(t *testing.T) {
	sys := testSystem3(t, 30)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()
	if err := m.Define("cheap",
		`for $i in doc("catalog")/item where $i/price < 500 return $i`, "clientA"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := m.Migrate(ctx, "cheap", "clientA", "clientA"); err == nil {
		t.Error("self-migration should fail")
	}
	if err := m.Migrate(ctx, "cheap", "clientB", "data"); err == nil {
		t.Error("migration from a peer without a placement should fail")
	}
	if err := m.Migrate(ctx, "nope", "clientA", "clientB"); err == nil {
		t.Error("migrating an unknown view should fail")
	}
	if err := m.AddPlacement("cheap", "clientB"); err != nil {
		t.Fatal(err)
	}
	if err := m.Migrate(ctx, "cheap", "clientA", "clientB"); err == nil {
		t.Error("migration onto an occupied peer should fail")
	}
	ps, _ := m.PlacementsOf("cheap")
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	if len(ps) != 2 || ps[0] != "clientA" || ps[1] != "clientB" {
		t.Fatalf("placements disturbed by failed moves: %v", ps)
	}
}
