package view

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/opt"
	"axml/internal/peer"
	"axml/internal/rewrite"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// wan is the cross-peer link profile of the tests: expensive enough
// that shipping a catalog visibly dominates.
var wan = netsim.Link{LatencyMs: 20, BytesPerMs: 200}

// testSystem builds client+data on a WAN with a catalog at data.
func testSystem(t *testing.T, items int) *core.System {
	t.Helper()
	net := netsim.New()
	netsim.Uniform(net, []netsim.PeerID{"client", "data"}, wan)
	sys := core.NewSystem(net)
	sys.MustAddPeer("client")
	data := sys.MustAddPeer("data")
	if err := data.InstallDocument("catalog", workload.Catalog(workload.CatalogSpec{
		Items: items, PriceMax: 1000, DescWords: 4, Seed: 7})); err != nil {
		t.Fatal(err)
	}
	return sys
}

func viewTrees(t *testing.T, sys *core.System, at netsim.PeerID, name string) []*xmltree.Node {
	t.Helper()
	p, ok := sys.Peer(at)
	if !ok {
		t.Fatalf("no peer %s", at)
	}
	return docRoot(t, p, DocPrefix+name).Children
}

// docRoot reads the named document's newest root through a snapshot.
func docRoot(t testing.TB, p *peer.Peer, name string) *xmltree.Node {
	t.Helper()
	h := p.Snapshot()
	defer h.Release()
	root, err := h.Root(name)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestDefineMaterializesAtPlacement(t *testing.T) {
	sys := testSystem(t, 120)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	if err := m.Define("cheap",
		`for $i in doc("catalog")/item where $i/price < 500 return $i`, "client"); err != nil {
		t.Fatal(err)
	}
	kids := viewTrees(t, sys, "client", "cheap")
	if len(kids) == 0 {
		t.Fatal("view materialized empty")
	}
	for _, k := range kids {
		if k.Label != "item" {
			t.Fatalf("view stores %q, want item trees", k.Label)
		}
	}
	if st := sys.Net.Stats(); st.Bytes == 0 {
		t.Error("materialization over the WAN should be network-charged")
	}
	infos := m.Views()
	if len(infos) != 1 || infos[0].Name != "cheap" || infos[0].Mode != "incremental" ||
		infos[0].Trees != len(kids) {
		t.Errorf("Views() = %+v", infos)
	}
}

// TestDefineLandsInOneEpoch: materializing a view installs its staging
// document, lands its rows as one transaction and publishes the document
// under the view's name, so the placement peer moves three epochs
// whatever the number of rows.
func TestDefineLandsInOneEpoch(t *testing.T) {
	for _, rows := range []int{200, 10000} {
		sys := testSystem(t, rows)
		client, _ := sys.Peer("client")
		m := NewManager(sys)
		before := client.Epoch()
		if err := m.Define("all", `for $i in doc("catalog")/item return $i`, "client"); err != nil {
			t.Fatal(err)
		}
		if got := len(viewTrees(t, sys, "client", "all")); got != rows {
			t.Errorf("%d rows landed, want %d", got, rows)
		}
		if got := client.Epoch() - before; got != 3 {
			t.Errorf("defining a %d-row view took %d epochs, want 3", rows, got)
		}
		m.Close()
		sys.Close()
	}
}

// TestFailedDefineLeavesNothing: a definition whose rows cannot ship
// leaves neither the view nor its document behind, so the same
// definition succeeds once the peer is back; a replica that cannot be
// filled leaves the view with its first placement only, and the catalog
// without the failed copy.
func TestFailedDefineLeavesNothing(t *testing.T) {
	const cheap = `for $i in doc("catalog")/item where $i/price < 500 return $i`
	t.Run("define", func(t *testing.T) {
		sys := testSystem(t, 30)
		defer sys.Close()
		m := NewManager(sys)
		defer m.Close()
		sys.Net.SetDown("client", true)
		if err := m.Define("cheap", cheap, "client"); err == nil {
			t.Fatal("defining a view at a down peer should fail")
		}
		client, _ := sys.Peer("client")
		if client.HasDocument(DocPrefix+"cheap") || client.HasDocument(DocPrefix+"cheap~incoming") {
			t.Error("the failed definition left its document installed")
		}
		if vs := m.Views(); len(vs) != 0 {
			t.Errorf("Views() = %+v, want none", vs)
		}
		sys.Net.SetDown("client", false)
		if err := m.Define("cheap", cheap, "client"); err != nil {
			t.Fatal(err)
		}
		if !sameMultiset(viewTrees(t, sys, "client", "cheap"), expectedTrees(t, sys, "data", cheap)) {
			t.Error("the retried definition does not hold the base's rows")
		}
	})
	t.Run("add placement", func(t *testing.T) {
		sys := testSystem3(t, 30)
		defer sys.Close()
		m := NewManager(sys)
		defer m.Close()
		if err := m.Define("cheap", cheap, "clientA"); err != nil {
			t.Fatal(err)
		}
		sys.Net.SetDown("clientB", true)
		if err := m.AddPlacement("cheap", "clientB"); err == nil {
			t.Fatal("adding a placement at a down peer should fail")
		}
		if ps, _ := m.PlacementsOf("cheap"); len(ps) != 1 || ps[0] != "clientA" {
			t.Errorf("placements = %v, want [clientA]", ps)
		}
		clientB, _ := sys.Peer("clientB")
		if clientB.HasDocument(DocPrefix+"cheap") || clientB.HasDocument(DocPrefix+"cheap~incoming") {
			t.Error("the failed placement left its document installed")
		}
		for _, rep := range sys.Generics.DocReplicas(DocPrefix + "cheap") {
			if rep.At == "clientB" {
				t.Errorf("the catalog lists the failed copy: %+v", rep)
			}
		}
	})
}

// TestPlacementChangeIsOneEpoch: every later change to a materialized
// copy is one epoch at its peer too. A full refresh ships tombstones for
// the stored rows with the fresh rows, a recompute refresh (selection or
// full copy) and a re-adoption swap the document in one transaction, and
// a migration publishes the staging install, the landing and the
// rename.
func TestPlacementChangeIsOneEpoch(t *testing.T) {
	const cheap = `for $i in doc("catalog")/item where $i/price < 500 return $i`
	const upward = `for $i in doc("catalog")/item where count($i/../item) < 1000 return $i`
	adopt := func(m *Manager) error {
		return m.Adopt("v", cheap, "clientA",
			xmltree.E("axml:view", xmltree.A("name", "v"), xmltree.E("item")), "origin")
	}
	refreshFull := func(m *Manager) error { _, err := m.RefreshFull("v"); return err }
	for _, c := range []struct {
		name          string
		setup, change func(m *Manager) error
		at            netsim.PeerID
		epochs        uint64
	}{
		{"full refresh", func(m *Manager) error { return m.Define("v", cheap, "clientA") }, refreshFull, "clientA", 1},
		{"recompute refresh", func(m *Manager) error { return m.Define("v", upward, "clientA") }, refreshFull, "clientA", 1},
		{"full-copy refresh", func(m *Manager) error { return m.Define("v", `doc("catalog")`, "clientA") }, refreshFull, "clientA", 1},
		{"re-adoption", adopt, adopt, "clientA", 1},
		{"migration", func(m *Manager) error { return m.Define("v", cheap, "clientA") }, func(m *Manager) error {
			return m.Migrate(context.Background(), "v", "clientA", "clientB")
		}, "clientB", 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := testSystem3(t, 50)
			defer sys.Close()
			m := NewManager(sys)
			defer m.Close()
			if err := c.setup(m); err != nil {
				t.Fatal(err)
			}
			at, _ := sys.Peer(c.at)
			before := at.Epoch()
			if err := c.change(m); err != nil {
				t.Fatal(err)
			}
			if got := at.Epoch() - before; got != c.epochs {
				t.Errorf("%d epochs at %s, want %d", got, c.at, c.epochs)
			}
			if len(viewTrees(t, sys, c.at, "v")) == 0 {
				t.Error("the view is empty")
			}
		})
	}
}

func TestReplicaViewServesDocAny(t *testing.T) {
	sys := testSystem(t, 60)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	if err := m.Define("catcopy", `doc("catalog")`, "client"); err != nil {
		t.Fatal(err)
	}
	before := sys.Net.Stats().Bytes

	// d@any resolution must find the local full copy: no traffic.
	res, err := sys.Eval("client", &core.Doc{Name: "catalog", At: core.AnyPeer})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Net.Stats().Bytes - before; got != 0 {
		t.Errorf("d@any with a local replica view moved %d bytes, want 0", got)
	}
	data, _ := sys.Peer("data")
	orig := docRoot(t, data, "catalog")
	if len(res.Forest) != 1 || !xmltree.Equal(res.Forest[0], orig) {
		t.Error("replica view content differs from the base document")
	}
}

func TestDuplicateAndInvalidDefinitions(t *testing.T) {
	sys := testSystem(t, 10)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	src := `for $i in doc("catalog")/item return $i`
	if err := m.Define("v", src, "client"); err != nil {
		t.Fatal(err)
	}
	if err := m.Define("v", src, "client"); err == nil {
		t.Error("same placement twice should fail")
	}
	if err := m.Define("v", `for $i in doc("catalog")/item where $i/price < 3 return $i`, "data"); err == nil {
		t.Error("same name with a different query should fail")
	}
	if err := m.Define("v", src, "data"); err != nil {
		t.Errorf("second placement of the same query should succeed: %v", err)
	}
	if got := len(m.Views()[0].Placements); got != 2 {
		t.Errorf("placements = %d, want 2", got)
	}
	if err := m.Define("w", `param $p; for $i in $p return $i`, "client"); err == nil {
		t.Error("parameterized view should fail")
	}
	if err := m.Define("w", src, "nowhere"); err == nil {
		t.Error("unknown placement peer should fail")
	}
}

func TestDropView(t *testing.T) {
	sys := testSystem(t, 20)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	if err := m.Define("tmp", `doc("catalog")`, "client"); err != nil {
		t.Fatal(err)
	}
	if err := m.Drop("tmp"); err != nil {
		t.Fatal(err)
	}
	client, _ := sys.Peer("client")
	if client.HasDocument(DocPrefix + "tmp") {
		t.Error("view document survived Drop")
	}
	if _, err := sys.Generics.ResolveDoc("client", DocPrefix+"tmp"); err == nil {
		t.Error("catalog registration survived Drop")
	}
	if _, err := sys.Generics.ResolveDoc("client", "catalog"); err == nil {
		t.Error("base-class registration survived Drop")
	}
	if err := m.Drop("tmp"); err == nil {
		t.Error("double Drop should fail")
	}
}

// TestOptimizerPicksLocalView is the acceptance check of the view
// subsystem: with a view materialized at the client, opt.Optimize must
// prefer reading it over any plan that ships base data from the remote
// peer — and the chosen plan must produce the same answer.
func TestOptimizerPicksLocalView(t *testing.T) {
	sys := testSystem(t, 200)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	if err := m.Define("cheap",
		`for $i in doc("catalog")/item where $i/price < 300 return $i`, "client"); err != nil {
		t.Fatal(err)
	}
	q := xquery.MustParse(
		`for $i in doc("catalog")/item where $i/price < 100 return <hit>{$i/name}</hit>`)
	e := &core.Query{Q: q, At: "client"}

	withView, _, err := opt.Optimize(sys, "client", e, opt.Options{
		ExtraRules: []rewrite.Rule{m.Rule()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(withView.Expr.String(), DocPrefix+"cheap") {
		t.Fatalf("best plan does not read the view: %s", withView)
	}
	usedRule := false
	for _, d := range withView.Derivation {
		if strings.Contains(d, "useView") {
			usedRule = true
		}
	}
	if !usedRule {
		t.Errorf("derivation missing useView: %v", withView.Derivation)
	}

	noView, _, err := opt.Optimize(sys, "client", e, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if withView.Cost >= noView.Cost {
		t.Errorf("local view plan should be cheaper: %.2f vs %.2f", withView.Cost, noView.Cost)
	}

	// The two best plans must agree with the naive evaluation.
	naive, err := sys.Eval("client", e)
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Net.Stats().Bytes
	got, err := sys.Eval("client", withView.Expr)
	if err != nil {
		t.Fatal(err)
	}
	if moved := sys.Net.Stats().Bytes - before; moved != 0 {
		t.Errorf("view plan moved %d bytes, want 0 (view is local)", moved)
	}
	if len(got.Forest) != len(naive.Forest) || len(got.Forest) == 0 {
		t.Fatalf("view plan answer differs: %d vs %d trees", len(got.Forest), len(naive.Forest))
	}
	for i := range got.Forest {
		if !xmltree.Equal(got.Forest[i], naive.Forest[i]) {
			t.Fatalf("tree %d differs:\n%s\nvs\n%s", i,
				xmltree.Serialize(got.Forest[i]), xmltree.Serialize(naive.Forest[i]))
		}
	}
}

// TestViewsAtEveryClientShipLess runs a subscription workload: three
// clients re-issue a selective query while the catalog grows by ten
// items a round. With the view placed at every client the rounds ship
// refresh deltas instead of matching data, so fewer bytes move, queries
// answer faster in virtual ms, and every client sees the same rows as
// without views.
func TestViewsAtEveryClientShipLess(t *testing.T) {
	clients := []netsim.PeerID{"client0", "client1", "client2"}
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 100 return <hit>{$i/name}</hit>`)
	run := func(views bool) (bytes int64, meanMs float64, hits int) {
		sys := churnSystem(t, 150, append([]netsim.PeerID{"data"}, clients...)...)
		defer sys.Close()
		m := NewManager(sys)
		defer m.Close()
		var opts opt.Options
		if views {
			for _, c := range clients {
				if err := m.Define("cheap", `for $i in doc("catalog")/item where $i/price < 100 return $i`, c); err != nil {
					t.Fatal(err)
				}
			}
			opts.ExtraRules = []rewrite.Rule{m.Rule()}
		}
		totalMs := 0.0
		for r, n := 0, 0; r < 4; r++ {
			for ; n < (r+1)*10; n++ {
				addItem(t, sys, "data", "catalog", n*37%1000, fmt.Sprintf("fresh-%d", n))
			}
			if views {
				if _, err := m.RefreshAll(); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range clients {
				plan, _, err := opt.Optimize(sys, c, &core.Query{Q: q, At: c}, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Eval(c, plan.Expr)
				if err != nil {
					t.Fatal(err)
				}
				hits += len(res.Forest)
				totalMs += res.VT
			}
		}
		return sys.Net.Stats().Bytes, totalMs / float64(4*len(clients)), hits
	}
	baseBytes, baseMs, baseHits := run(false)
	viewBytes, viewMs, viewHits := run(true)
	t.Logf("base %d bytes, %.2f ms, %d rows; views %d bytes, %.2f ms, %d rows",
		baseBytes, baseMs, baseHits, viewBytes, viewMs, viewHits)
	if viewHits != baseHits || baseHits == 0 {
		t.Errorf("views answered %d rows, base %d", viewHits, baseHits)
	}
	if viewBytes >= baseBytes {
		t.Errorf("views shipped %d bytes, base %d", viewBytes, baseBytes)
	}
	if viewMs >= baseMs {
		t.Errorf("view-local queries took %.2f ms on average, base %.2f ms", viewMs, baseMs)
	}
}

// TestOptimizerSkipsRemoteViewOnCheapLink checks the other side of the
// trade-off: when the base document is local and the view remote, the
// optimizer must not chase the view.
func TestOptimizerSkipsUselessView(t *testing.T) {
	sys := testSystem(t, 100)
	defer sys.Close()
	m := NewManager(sys)
	defer m.Close()

	// View placed at the data peer itself; a client query should still
	// prefer whatever the base rules choose over fetching the view when
	// both live at data — but crucially the rewritten plan must never
	// be *forced*. Here we only assert Optimize does not error and the
	// answer stays correct.
	if err := m.Define("all",
		`for $i in doc("catalog")/item return $i`, "data"); err != nil {
		t.Fatal(err)
	}
	q := xquery.MustParse(
		`for $i in doc("catalog")/item where $i/price < 50 return $i/name`)
	e := &core.Query{Q: q, At: "client"}
	plan, _, err := opt.Optimize(sys, "client", e, opt.Options{
		ExtraRules: []rewrite.Rule{m.Rule()},
	})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := sys.Eval("client", e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Eval("client", plan.Expr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Forest) != len(naive.Forest) {
		t.Errorf("optimized plan answer differs: %d vs %d", len(got.Forest), len(naive.Forest))
	}
}
