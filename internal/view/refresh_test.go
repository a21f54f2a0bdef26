package view

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

func addItem(t testing.TB, sys *core.System, at netsim.PeerID, doc string, price int, name string) {
	t.Helper()
	p, _ := sys.Peer(at)
	// Read the root through a snapshot: concurrent writers swap
	// Document.Root under the peer's lock. Its ID is stable across epochs.
	h := p.Snapshot()
	root, err := h.Root(doc)
	h.Release()
	if err != nil {
		t.Fatalf("no document %q at %s", doc, at)
	}
	item := xmltree.E("item",
		xmltree.E("name", xmltree.T(name)),
		xmltree.E("price", xmltree.T(fmt.Sprint(price))))
	if err := p.AddChild(root.ID, item); err != nil {
		t.Fatal(err)
	}
}

// expectedTrees evaluates the view query directly against the base
// peer's store — the ground truth a fresh materialization would hold.
func expectedTrees(t testing.TB, sys *core.System, at netsim.PeerID, src string) []*xmltree.Node {
	t.Helper()
	p, _ := sys.Peer(at)
	out, err := p.RunQuery(xquery.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameMultiset compares two forests by canonical hash, order-blind.
func sameMultiset(a, b []*xmltree.Node) bool {
	if len(a) != len(b) {
		return false
	}
	counts := map[xmltree.Digest]int{}
	for _, n := range a {
		counts[xmltree.Hash(n)]++
	}
	for _, n := range b {
		counts[xmltree.Hash(n)]--
	}
	for _, c := range counts {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestIncrementalRefreshStaysConsistent(t *testing.T) {
	sys := testSystem(t, 80)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	src := `for $i in doc("catalog")/item where $i/price < 500 return $i`
	if err := m.Define("cheap", src, "client"); err != nil {
		t.Fatal(err)
	}
	if m.Views()[0].Mode != "incremental" {
		t.Fatalf("expected incremental mode, got %s", m.Views()[0].Mode)
	}

	addItem(t, sys, "data", "catalog", 5, "matching-a")
	addItem(t, sys, "data", "catalog", 999, "too-expensive")
	addItem(t, sys, "data", "catalog", 120, "matching-b")

	before := sys.Net.Stats().Bytes
	shipped, err := m.Refresh("cheap")
	if err != nil {
		t.Fatal(err)
	}
	if shipped != 2 {
		t.Errorf("refresh shipped %d trees, want 2", shipped)
	}
	deltaBytes := sys.Net.Stats().Bytes - before
	data, _ := sys.Peer("data")
	catalog, _ := data.Document("catalog")
	if full := int64(catalog.Root.ByteSize()); deltaBytes >= full {
		t.Errorf("incremental refresh moved %d bytes, full doc is %d", deltaBytes, full)
	}

	if !sameMultiset(viewTrees(t, sys, "client", "cheap"), expectedTrees(t, sys, "data", src)) {
		t.Error("view diverged from its definition after incremental refresh")
	}

	// A second refresh with no base change ships nothing.
	if n, err := m.Refresh("cheap"); err != nil || n != 0 {
		t.Errorf("idle refresh shipped %d (err %v), want 0", n, err)
	}
}

func TestFullRefreshFallback(t *testing.T) {
	sys := testSystem(t, 40)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	// A let-first aggregation is not incrementalizable: the manager
	// must fall back to full re-materialization.
	src := `let $all := doc("catalog")/item return <summary n="{count($all)}"/>`
	if err := m.Define("stats", src, "client"); err != nil {
		t.Fatal(err)
	}
	if m.Views()[0].Mode != "recompute" {
		t.Fatalf("expected recompute mode, got %s", m.Views()[0].Mode)
	}
	check := func() {
		kids := viewTrees(t, sys, "client", "stats")
		if len(kids) != 1 {
			t.Fatalf("summary view has %d trees", len(kids))
		}
		want := expectedTrees(t, sys, "data", src)
		if !sameMultiset(kids, want) {
			t.Errorf("summary stale: have %s want %s",
				xmltree.Serialize(kids[0]), xmltree.Serialize(want[0]))
		}
	}
	check()
	addItem(t, sys, "data", "catalog", 10, "later")
	addItem(t, sys, "data", "catalog", 20, "even-later")
	if _, err := m.Refresh("stats"); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestBodyReadingOutsideItsSourceIsRecomputed: provenance maintenance
// re-derives a source only when its own subtree changed, so a body that
// also reads the rest of the document must not be given to it — every
// row here depends on how many items there are.
func TestBodyReadingOutsideItsSourceIsRecomputed(t *testing.T) {
	sys := testSystem(t, 10)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	src := `for $i in doc("catalog")/item where count(doc("catalog")/item) < 12 return $i`
	if err := m.Define("few", src, "client"); err != nil {
		t.Fatal(err)
	}
	if mode := m.Views()[0].Mode; mode != "recompute" {
		t.Errorf("mode = %s, want recompute", mode)
	}
	if got := len(viewTrees(t, sys, "client", "few")); got != 10 {
		t.Fatalf("view holds %d rows before the inserts, want 10", got)
	}
	for i := 0; i < 3; i++ {
		addItem(t, sys, "data", "catalog", 1, fmt.Sprintf("extra-%d", i))
	}
	if _, err := m.Refresh("few"); err != nil {
		t.Fatal(err)
	}
	got, want := viewTrees(t, sys, "client", "few"), expectedTrees(t, sys, "data", src)
	if len(want) != 0 || !sameMultiset(got, want) {
		t.Errorf("view holds %d rows, a fresh evaluation %d (want 0: the count passed 12)", len(got), len(want))
	}
}

func TestReplicaViewFullRefresh(t *testing.T) {
	sys := testSystem(t, 15)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	if err := m.Define("copy", `doc("catalog")`, "client"); err != nil {
		t.Fatal(err)
	}
	addItem(t, sys, "data", "catalog", 42, "fresh")
	if _, err := m.Refresh("copy"); err != nil {
		t.Fatal(err)
	}
	client, _ := sys.Peer("client")
	data, _ := sys.Peer("data")
	cp, _ := client.Document(DocPrefix + "copy")
	orig, _ := data.Document("catalog")
	if !xmltree.Equal(cp.Root, orig.Root) {
		t.Error("replica view stale after full refresh")
	}
	// The reinstalled root must still resolve through d@any.
	if _, err := sys.Eval("client", &core.Doc{Name: "catalog", At: core.AnyPeer}); err != nil {
		t.Errorf("d@any after replica refresh: %v", err)
	}
}

// TestAutoRefreshConcurrentUpdates races concurrent base-document
// writers against watcher-driven view maintenance; run under -race.
// After the writers finish and the manager quiesces, one final
// synchronous refresh must leave the view exactly consistent.
func TestAutoRefreshConcurrentUpdates(t *testing.T) {
	sys := testSystem(t, 10)
	defer sys.Close()
	m := NewManager(sys)

	src := `for $i in doc("catalog")/item where $i/price < 500 return $i`
	if err := m.Define("cheap", src, "client"); err != nil {
		t.Fatal(err)
	}
	m.AutoRefresh()

	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				addItem(t, sys, "data", "catalog", (w*perWriter+i)%1000,
					fmt.Sprintf("w%d-%d", w, i))
			}
		}(w)
	}
	wg.Wait()
	m.Close() // stop watchers, join in-flight refreshes

	if _, err := m.Refresh("cheap"); err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(viewTrees(t, sys, "client", "cheap"), expectedTrees(t, sys, "data", src)) {
		t.Error("view inconsistent after concurrent updates")
	}
}

func TestRefreshAllCoversEveryView(t *testing.T) {
	sys := testSystem(t, 20)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	if err := m.Define("a", `for $i in doc("catalog")/item where $i/price < 500 return $i`, "client"); err != nil {
		t.Fatal(err)
	}
	if err := m.Define("b", `for $i in doc("catalog")/item where $i/price >= 500 return $i`, "client"); err != nil {
		t.Fatal(err)
	}
	addItem(t, sys, "data", "catalog", 100, "cheap-one")
	addItem(t, sys, "data", "catalog", 900, "dear-one")
	n, err := m.RefreshAll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("RefreshAll moved %d trees, want 2", n)
	}
}

// TestFailedShipIsRetried regression-tests delta delivery: a refresh
// whose ship fails (placement peer down) must re-emit the same rows
// once the peer returns, not lose them.
func TestFailedShipIsRetried(t *testing.T) {
	sys := testSystem(t, 10)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	src := `for $i in doc("catalog")/item where $i/price < 500 return $i`
	if err := m.Define("cheap", src, "client"); err != nil {
		t.Fatal(err)
	}
	defined := m.Placements()[0]
	if defined.Epoch == 0 || defined.Behind != 0 {
		t.Fatalf("fresh placement reports epoch %d, behind %d", defined.Epoch, defined.Behind)
	}
	addItem(t, sys, "data", "catalog", 7, "fragile")
	sys.Net.SetDown("client", true)
	if _, err := m.Refresh("cheap"); err == nil {
		t.Fatal("refresh to a down peer should fail")
	}
	// The placement's epoch moves only when a delta lands: the retry
	// must read the same range of the base's feed.
	if failed := m.Placements()[0]; failed.Epoch != defined.Epoch || failed.Behind != 1 {
		t.Errorf("after the failed ship: epoch %d behind %d, want epoch %d behind 1",
			failed.Epoch, failed.Behind, defined.Epoch)
	}
	sys.Net.SetDown("client", false)
	n, err := m.Refresh("cheap")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("retry shipped %d trees, want the 1 lost in the failed refresh", n)
	}
	if landed := m.Placements()[0]; landed.Epoch <= defined.Epoch || landed.Behind != 0 {
		t.Errorf("after the retry: epoch %d behind %d, want past %d and behind 0",
			landed.Epoch, landed.Behind, defined.Epoch)
	}
	if !sameMultiset(viewTrees(t, sys, "client", "cheap"), expectedTrees(t, sys, "data", src)) {
		t.Error("view lost rows across the failed ship")
	}
}

// TestFailedDefineLeavesNoGhost regression-tests definition rollback:
// a Define whose materialization fails must not leave a view state
// that rewrites queries onto a never-installed document.
func TestFailedDefineLeavesNoGhost(t *testing.T) {
	sys := testSystem(t, 5)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	src := `for $i in doc("nosuchdoc")/item return $i`
	if err := m.Define("ghost", src, "client"); err == nil {
		t.Fatal("defining over a missing base should fail")
	}
	if len(m.Views()) != 0 {
		t.Fatalf("failed define left state: %+v", m.Views())
	}
	if _, _, ok := m.RewriteBest(xquery.MustParse(
		`for $i in doc("nosuchdoc")/item where $i/p < 1 return $i`)); ok {
		t.Error("ghost view still rewrites queries")
	}
	// Once the base exists, the same definition must succeed.
	p, _ := sys.Peer("data")
	if err := p.InstallDocument("nosuchdoc", xmltree.MustParse(`<d><item><p>0</p></item></d>`)); err != nil {
		t.Fatal(err)
	}
	if err := m.Define("ghost", src, "client"); err != nil {
		t.Errorf("re-define after installing the base: %v", err)
	}
}

// churnSystem is testSystem with an extra placement peer, for tests
// that exercise several placements of one view.
func churnSystem(t *testing.T, items int, peers ...netsim.PeerID) *core.System {
	t.Helper()
	net := netsim.New()
	netsim.Uniform(net, peers, wan)
	sys := core.NewSystem(net)
	var data *peer.Peer
	for _, id := range peers {
		p := sys.MustAddPeer(id)
		if id == "data" {
			data = p
		}
	}
	if data == nil {
		t.Fatal("churnSystem needs a data peer")
	}
	if err := data.InstallDocument("catalog", workload.Catalog(workload.CatalogSpec{
		Items: items, PriceMax: 1000, DescWords: 4, Seed: 7})); err != nil {
		t.Fatal(err)
	}
	return sys
}

// matchingItemID returns a base item the view predicate (price < 500)
// selects, so deleting or updating it must be visible in the view.
func matchingItemID(t *testing.T, sys *core.System) xmltree.NodeID {
	t.Helper()
	data, _ := sys.Peer("data")
	catalog, _ := data.Document("catalog")
	for _, it := range catalog.Root.ChildElementsByLabel("item") {
		if p := it.FirstChildElement("price"); p != nil {
			var v int
			fmt.Sscanf(p.TextContent(), "%d", &v)
			if v < 500 {
				return it.ID
			}
		}
	}
	t.Fatal("no matching item in the catalog")
	return 0
}

func TestDeletionRetractsAtEveryPlacement(t *testing.T) {
	sys := churnSystem(t, 60, "client", "mirror", "data")
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	src := `for $i in doc("catalog")/item where $i/price < 500 return $i`
	if err := m.Define("cheap", src, "client"); err != nil {
		t.Fatal(err)
	}
	if err := m.Define("cheap", src, "mirror"); err != nil {
		t.Fatal(err)
	}

	data, _ := sys.Peer("data")
	catalog, _ := data.Document("catalog")
	victim := matchingItemID(t, sys)
	if err := data.RemoveChildByID(catalog.Root.ID, victim); err != nil {
		t.Fatal(err)
	}
	n, err := m.Refresh("cheap")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("deletion applied %d maintenance ops, want 1 retraction per placement", n)
	}
	want := expectedTrees(t, sys, "data", src)
	for _, at := range []netsim.PeerID{"client", "mirror"} {
		if !sameMultiset(viewTrees(t, sys, at, "cheap"), want) {
			t.Errorf("placement at %s kept the deleted row", at)
		}
	}
	// Idle refresh after the retraction ships nothing.
	if n, err := m.Refresh("cheap"); err != nil || n != 0 {
		t.Errorf("idle refresh = %d ops (err %v), want 0", n, err)
	}
}

func TestInPlaceUpdateRederivesExactlyOnce(t *testing.T) {
	sys := testSystem(t, 40)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	src := `for $i in doc("catalog")/item where $i/price < 500 return $i`
	if err := m.Define("cheap", src, "client"); err != nil {
		t.Fatal(err)
	}
	data, _ := sys.Peer("data")
	catalog, _ := data.Document("catalog")
	victim := matchingItemID(t, sys)
	repl := xmltree.E("item",
		xmltree.E("name", xmltree.T("updated-in-place")),
		xmltree.E("price", xmltree.T("77")))
	if err := data.ReplaceChildByID(catalog.Root.ID, victim, repl); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Refresh("cheap"); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, row := range viewTrees(t, sys, "client", "cheap") {
		if n := row.FirstChildElement("name"); n != nil && n.TextContent() == "updated-in-place" {
			seen++
		}
	}
	if seen != 1 {
		t.Errorf("updated row derived %d times, want exactly once", seen)
	}
	if !sameMultiset(viewTrees(t, sys, "client", "cheap"), expectedTrees(t, sys, "data", src)) {
		t.Error("view diverged after in-place update")
	}
}

// eventMultiset renders a delta step order-blind: one entry per
// retracted lineage, one per added source with its result digests.
func eventMultiset(ev *xquery.Events) map[string]int {
	out := map[string]int{}
	for _, k := range ev.Retractions {
		out[fmt.Sprintf("retract %d", k.ID)]++
	}
	for _, a := range ev.Additions {
		key := fmt.Sprintf("add %d:", a.Source.ID)
		for _, r := range a.Results {
			key += fmt.Sprintf(" %x", xmltree.Hash(r))
		}
		out[key]++
	}
	return out
}

// refreshBothWays takes the delta step the next refresh of the view's
// first placement will take twice, from clones of the placement's
// state — once as the full diff, once from the base's change feed —
// and fails unless both emit the same events; then it refreshes and
// fails unless the view equals a fresh evaluation of src. It reports
// whether the feed reached back to the placement's epoch.
func refreshBothWays(t *testing.T, m *Manager, sys *core.System, name, base, src string) (fed bool) {
	t.Helper()
	st, _ := m.lookup(name)
	p := st.placements[0]
	host, _ := sys.Peer(p.baseAt)
	h := host.Snapshot()
	env := &xquery.Env{Resolve: h.Resolver()}
	commits, fed := h.Changes(base, p.epoch)
	full, err := p.inc.Clone().DeltaEventsWith(env)
	if err != nil {
		t.Fatal(err)
	}
	if fed {
		got, err := p.inc.Clone().DeltaEventsFeed(env, commits)
		if err != nil {
			t.Fatal(err)
		}
		if want, got := eventMultiset(full), eventMultiset(got); !reflect.DeepEqual(want, got) {
			t.Fatalf("after %d commits the feed step emitted %v, the full diff %v", len(commits), got, want)
		}
	}
	h.Release()
	if _, err := m.Refresh(name); err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(viewTrees(t, sys, p.at, name), expectedTrees(t, sys, p.baseAt, src)) {
		t.Fatal("view diverged from full re-materialization")
	}
	return fed
}

// TestChurnConvergence is the property test of the maintenance spine:
// under a seeded random workload of inserts, deletions, in-place
// updates and nested replaces — and, once per run each, a wholesale
// ReplaceChildren, a Touch, a burst longer than the store's change feed
// and a remove-then-reinstall of the base — a view maintained through
// the feed must converge to exactly the content a full
// re-materialization would produce, and every feed-driven delta step
// must emit the same events as the full diff from the same state.
func TestChurnConvergence(t *testing.T) {
	for _, seed := range []int64{3, 17, 51} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sys := testSystem(t, 50)
			defer sys.Close()
			m := NewManager(sys)
			defer m.Close()

			src := `for $i in doc("catalog")/item where $i/price < 500 return $i`
			if err := m.Define("cheap", src, "client"); err != nil {
				t.Fatal(err)
			}
			data, _ := sys.Peer("data")
			rng := rand.New(rand.NewSource(seed))
			serial := 0
			item := func() *xmltree.Node {
				serial++
				return xmltree.E("item",
					xmltree.E("name", xmltree.T(fmt.Sprintf("churn-%d", serial))),
					xmltree.E("price", xmltree.T(fmt.Sprint(rng.Intn(1000)))))
			}
			// root and its items as the store holds them now.
			current := func() (*xmltree.Node, []*xmltree.Node) {
				d, ok := data.Document("catalog")
				if !ok {
					t.Fatal("catalog is gone")
				}
				return d.Root, d.Root.ChildElementsByLabel("item")
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			churn := func(ops int) {
				for op := 0; op < ops; op++ {
					root, items := current()
					switch k := rng.Intn(4); {
					case k == 0 || len(items) < 2:
						must(data.AddChild(root.ID, item()))
					case k == 1:
						must(data.RemoveChildByID(root.ID, items[rng.Intn(len(items))].ID))
					case k == 2:
						must(data.ReplaceChildByID(root.ID, items[rng.Intn(len(items))].ID, item()))
					default: // the mixed_rw write: a replace below the candidate
						price := items[rng.Intn(len(items))].FirstChildElement("price")
						must(data.ReplaceChildByID(0, price.ID,
							xmltree.E("price", xmltree.T(fmt.Sprint(rng.Intn(1000))))))
					}
				}
			}
			rounds := []struct {
				name      string
				truncated bool // the feed no longer reaches the placement's epoch
				do        func()
			}{
				{"churn", false, func() { churn(12) }},
				{"churn", false, func() { churn(12) }},
				{"replace children", false, func() {
					churn(5)
					root, _ := current()
					must(data.ReplaceChildren(root.ID, []*xmltree.Node{item(), item(), item(), item()}))
					churn(5)
				}},
				{"churn", false, func() { churn(12) }},
				{"touch", false, func() { churn(6); data.Touch("catalog"); churn(6) }},
				{"burst", true, func() { churn(300) }},
				{"churn", false, func() { churn(12) }},
				{"reinstall", true, func() {
					churn(4)
					must(data.RemoveDocument("catalog"))
					must(data.InstallDocument("catalog", xmltree.E("catalog", item(), item(), item())))
					churn(4)
				}},
				{"churn", false, func() { churn(12) }},
				{"idle", false, func() {}},
			}
			for i, round := range rounds {
				round.do()

				if ok := refreshBothWays(t, m, sys, "cheap", "catalog", src); ok == round.truncated {
					t.Fatalf("round %d (%s): feed ok=%v", i, round.name, ok)
				}
				if info := m.Placements()[0]; info.Behind != 0 || info.Epoch == 0 {
					t.Fatalf("round %d (%s): refreshed placement reports epoch %d, behind %d",
						i, round.name, info.Epoch, info.Behind)
				}
			}
			fed := viewTrees(t, sys, "client", "cheap")
			if _, err := m.RefreshFull("cheap"); err != nil {
				t.Fatal(err)
			}
			if !sameMultiset(fed, viewTrees(t, sys, "client", "cheap")) {
				t.Error("RefreshFull changed a view the feed had maintained")
			}
		})
	}
}

// TestDeltaMaintenanceShipsLessThanFullRefresh: under the same seeded
// churn (each round ten inserts, then a tenth of the live items deleted
// or replaced), refreshing through deltas ships fewer bytes across the
// WAN than re-materializing the view every round, and both end at the
// rows a direct evaluation gives.
func TestDeltaMaintenanceShipsLessThanFullRefresh(t *testing.T) {
	src := `for $i in doc("catalog")/item where $i/price < 500 return $i`
	run := func(full bool) (int64, []*xmltree.Node) {
		sys := testSystem(t, 150)
		defer sys.Close()
		m := NewManager(sys)
		defer m.Close()
		if err := m.Define("cheap", src, "client"); err != nil {
			t.Fatal(err)
		}
		data, _ := sys.Peer("data")
		catalog, _ := data.Document("catalog")
		rng := rand.New(rand.NewSource(97))
		serial := 0
		item := func() *xmltree.Node {
			serial++
			return xmltree.E("item",
				xmltree.E("name", xmltree.T(fmt.Sprintf("churn-%d", serial))),
				xmltree.E("price", xmltree.T(fmt.Sprint(serial*37%1000))))
		}
		before := sys.Net.Stats().Bytes
		for r := 0; r < 4; r++ {
			for k := 0; k < 10; k++ {
				if err := data.AddChild(catalog.Root.ID, item()); err != nil {
					t.Fatal(err)
				}
			}
			d, _ := data.Document("catalog")
			live := d.Root.ChildElementsByLabel("item")
			for k := 0; k < len(live)/10; k++ {
				i := rng.Intn(len(live))
				var err error
				if rng.Intn(2) == 0 {
					err = data.RemoveChildByID(catalog.Root.ID, live[i].ID)
				} else {
					err = data.ReplaceChildByID(catalog.Root.ID, live[i].ID, item())
				}
				if err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
			}
			var err error
			if full {
				_, err = m.RefreshFull("cheap")
			} else {
				_, err = m.Refresh("cheap")
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		rows := viewTrees(t, sys, "client", "cheap")
		if !sameMultiset(rows, expectedTrees(t, sys, "data", src)) {
			t.Fatalf("full=%v: the view diverged from a direct evaluation", full)
		}
		return sys.Net.Stats().Bytes - before, rows
	}
	fullBytes, fullRows := run(true)
	deltaBytes, deltaRows := run(false)
	t.Logf("full refresh %d bytes, delta %d bytes, %d rows", fullBytes, deltaBytes, len(deltaRows))
	if deltaBytes >= fullBytes {
		t.Errorf("delta maintenance shipped %d bytes, full refresh %d", deltaBytes, fullBytes)
	}
	if !sameMultiset(deltaRows, fullRows) {
		t.Errorf("delta maintenance holds %d rows, full refresh %d", len(deltaRows), len(fullRows))
	}
}

// TestFeedStepFollowsTheChain drives the feed step where the sources
// sit two steps below the root: writes inside a source, at the sources'
// parent, beside the chain (same depth, other labels) and above it (a
// whole shelf — more sources than one commit can name, so the step
// must take the full diff).
func TestFeedStepFollowsTheChain(t *testing.T) {
	sys := testSystem(t, 1)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()
	data, _ := sys.Peer("data")
	book := func(price int) *xmltree.Node {
		return xmltree.E("book", xmltree.E("price", xmltree.T(fmt.Sprint(price))))
	}
	lib := xmltree.E("lib",
		xmltree.E("shelf", book(10), book(80), xmltree.E("lamp")),
		xmltree.E("shelf", book(20)),
		xmltree.E("crate", book(30)))
	if err := data.InstallDocument("lib", lib); err != nil {
		t.Fatal(err)
	}
	src := `for $b in doc("lib")/shelf/book where $b/price < 50 return $b`
	if err := m.Define("cheap", src, "client"); err != nil {
		t.Fatal(err)
	}
	shelf, crate := lib.Children[0], lib.Children[2]
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"replace inside a source", func() error {
			return data.ReplaceChildByID(0, shelf.Children[1].Children[0].ID, xmltree.E("price", xmltree.T("5")))
		}},
		{"add a source", func() error { return data.AddChild(shelf.ID, book(7)) }},
		{"remove a source", func() error { return data.RemoveChildByID(shelf.ID, shelf.Children[0].ID) }},
		{"replace a non-source sibling", func() error {
			return data.ReplaceChildByID(shelf.ID, shelf.Children[2].ID, xmltree.E("lamp", xmltree.T("lit")))
		}},
		{"add under another label", func() error { return data.AddChild(crate.ID, book(1)) }},
		{"replace inside another label", func() error {
			return data.ReplaceChildByID(0, crate.Children[0].Children[0].ID, xmltree.E("price", xmltree.T("2")))
		}},
		{"add a shelf", func() error { return data.AddChild(lib.ID, xmltree.E("shelf", book(3), book(90))) }},
		{"remove a shelf", func() error { return data.RemoveChildByID(lib.ID, lib.Children[1].ID) }},
	} {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if !refreshBothWays(t, m, sys, "cheap", "lib", src) {
			t.Fatalf("%s: the feed lost track after one commit", step.name)
		}
	}
}

func TestRefreshContinuesPastFailingPlacement(t *testing.T) {
	sys := churnSystem(t, 30, "client", "mirror", "data")
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	src := `for $i in doc("catalog")/item where $i/price < 500 return $i`
	if err := m.Define("cheap", src, "client"); err != nil {
		t.Fatal(err)
	}
	if err := m.Define("cheap", src, "mirror"); err != nil {
		t.Fatal(err)
	}
	addItem(t, sys, "data", "catalog", 9, "reaches-client")
	sys.Net.SetDown("mirror", true)
	_, err := m.Refresh("cheap")
	if err == nil {
		t.Fatal("refresh with a down placement should report the failure")
	}
	// The healthy placement was still refreshed — a failing sibling no
	// longer starves it.
	want := expectedTrees(t, sys, "data", src)
	if !sameMultiset(viewTrees(t, sys, "client", "cheap"), want) {
		t.Error("healthy placement left stale by a failing sibling")
	}
	if lastErr := m.Views()[0].LastError; lastErr == "" {
		t.Error("failure not surfaced in Info.LastError")
	}
	sys.Net.SetDown("mirror", false)
	if _, err := m.Refresh("cheap"); err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(viewTrees(t, sys, "mirror", "cheap"), want) {
		t.Error("recovered placement did not converge")
	}
	if lastErr := m.Views()[0].LastError; lastErr != "" {
		t.Errorf("stale LastError after recovery: %s", lastErr)
	}
}

func TestUnwatchableBaseSurfacesInInfo(t *testing.T) {
	sys := testSystem(t, 10)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	// A recompute-mode view watches its base wherever it lives; once
	// the base is gone, auto-refresh can never fire and must say so.
	src := `let $all := doc("catalog")/item return <summary n="{count($all)}"/>`
	if err := m.Define("stats", src, "client"); err != nil {
		t.Fatal(err)
	}
	data, _ := sys.Peer("data")
	if err := data.RemoveDocument("catalog"); err != nil {
		t.Fatal(err)
	}
	m.AutoRefresh()
	if lastErr := m.Views()[0].LastError; lastErr == "" {
		t.Error("unwatchable base not surfaced via Views()")
	}
}

func TestRefreshFullHeals(t *testing.T) {
	sys := testSystem(t, 30)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	src := `for $i in doc("catalog")/item where $i/price < 500 return $i`
	if err := m.Define("cheap", src, "client"); err != nil {
		t.Fatal(err)
	}
	// Corrupt the materialization behind the manager's back.
	client, _ := sys.Peer("client")
	vdoc, _ := client.Document(DocPrefix + "cheap")
	if err := client.AddChild(vdoc.Root.ID, xmltree.E("bogus")); err != nil {
		t.Fatal(err)
	}
	// Incremental refresh sees no base change and keeps the corruption.
	if _, err := m.Refresh("cheap"); err != nil {
		t.Fatal(err)
	}
	want := expectedTrees(t, sys, "data", src)
	if sameMultiset(viewTrees(t, sys, "client", "cheap"), want) {
		t.Fatal("corruption unexpectedly gone before RefreshFull")
	}
	if _, err := m.RefreshFull("cheap"); err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(viewTrees(t, sys, "client", "cheap"), want) {
		t.Error("RefreshFull did not restore the view")
	}
	// And incremental maintenance keeps working after the heal.
	addItem(t, sys, "data", "catalog", 3, "post-heal")
	if _, err := m.Refresh("cheap"); err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(viewTrees(t, sys, "client", "cheap"), expectedTrees(t, sys, "data", src)) {
		t.Error("incremental refresh diverged after RefreshFull")
	}
}

// TestAutoRefreshChurnRace mixes concurrent inserts, deletions and
// in-place updates with watcher-driven maintenance; run under -race.
// Each writer owns the items it created, so the ops never collide.
func TestAutoRefreshChurnRace(t *testing.T) {
	sys := testSystem(t, 10)
	defer sys.Close()
	m := NewManager(sys)

	src := `for $i in doc("catalog")/item where $i/price < 500 return $i`
	if err := m.Define("cheap", src, "client"); err != nil {
		t.Fatal(err)
	}
	m.AutoRefresh()

	data, _ := sys.Peer("data")
	catalog, _ := data.Document("catalog")
	rootID := catalog.Root.ID

	const writers, perWriter = 4, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []xmltree.NodeID
			for i := 0; i < perWriter; i++ {
				item := xmltree.E("item",
					xmltree.E("name", xmltree.T(fmt.Sprintf("w%d-%d", w, i))),
					xmltree.E("price", xmltree.T(fmt.Sprint((w*perWriter+i*13)%1000))))
				if err := data.AddChild(rootID, item); err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, item.ID)
				switch {
				case i%3 == 1 && len(mine) > 1:
					if err := data.RemoveChildByID(rootID, mine[0]); err != nil {
						t.Error(err)
						return
					}
					mine = mine[1:]
				case i%3 == 2:
					repl := xmltree.E("item",
						xmltree.E("name", xmltree.T(fmt.Sprintf("w%d-%d-v2", w, i))),
						xmltree.E("price", xmltree.T(fmt.Sprint((w+i*7)%1000))))
					if err := data.ReplaceChildByID(rootID, mine[len(mine)-1], repl); err != nil {
						t.Error(err)
						return
					}
					mine[len(mine)-1] = repl.ID
				}
			}
		}(w)
	}
	wg.Wait()
	m.Close() // stop watchers, join in-flight refreshes

	if _, err := m.Refresh("cheap"); err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(viewTrees(t, sys, "client", "cheap"), expectedTrees(t, sys, "data", src)) {
		t.Error("view inconsistent after concurrent churn")
	}
}

// TestRefreshFullShipFailureRecovers regression-tests the forced-full
// path: a transient ship failure during RefreshFull must not leave an
// empty view behind subsequently "successful" refreshes — the next
// refresh re-derives and re-ships the full content.
func TestRefreshFullShipFailureRecovers(t *testing.T) {
	sys := testSystem(t, 25)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	src := `for $i in doc("catalog")/item where $i/price < 500 return $i`
	if err := m.Define("cheap", src, "client"); err != nil {
		t.Fatal(err)
	}
	sys.Net.SetDown("client", true)
	if _, err := m.RefreshFull("cheap"); err == nil {
		t.Fatal("RefreshFull to a down placement should fail")
	}
	sys.Net.SetDown("client", false)
	if _, err := m.Refresh("cheap"); err != nil {
		t.Fatal(err)
	}
	want := expectedTrees(t, sys, "data", src)
	if !sameMultiset(viewTrees(t, sys, "client", "cheap"), want) {
		t.Error("view not restored after failed RefreshFull")
	}
	// Maintenance keeps working afterwards, including retractions.
	data, _ := sys.Peer("data")
	catalog, _ := data.Document("catalog")
	if err := data.RemoveChildByID(catalog.Root.ID, matchingItemID(t, sys)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Refresh("cheap"); err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(viewTrees(t, sys, "client", "cheap"), expectedTrees(t, sys, "data", src)) {
		t.Error("retraction broken after RefreshFull recovery")
	}
}
