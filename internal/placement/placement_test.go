package placement

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"axml/internal/core"
	"axml/internal/gendoc"
	"axml/internal/netsim"
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

var wan = netsim.Link{LatencyMs: 20, BytesPerMs: 200}

// testWorld builds data + c0/c1/c2 on a WAN, a catalog at data and a
// view manager.
func testWorld(t *testing.T, items int) (*core.System, *view.Manager) {
	t.Helper()
	net := netsim.New()
	peers := []netsim.PeerID{"data", "c0", "c1", "c2"}
	netsim.Uniform(net, peers, wan)
	sys := core.NewSystem(net)
	for _, p := range peers {
		sys.MustAddPeer(p)
	}
	data, _ := sys.Peer("data")
	if err := data.InstallDocument("catalog", workload.Catalog(workload.CatalogSpec{
		Items: items, PriceMax: 1000, DescWords: 4, Seed: 7})); err != nil {
		t.Fatal(err)
	}
	views := view.NewManager(sys)
	t.Cleanup(views.Close)
	t.Cleanup(sys.Close)
	return sys, views
}

const hotViewSrc = `for $i in doc("catalog")/item where $i/price < 500 return $i`
const hotShape = `for $i in doc("catalog")/item where $i/price < 100 return $i/name`

// inject records n queries for the view from one consumer.
func inject(obs *Observer, consumer netsim.PeerID, n int) {
	for i := 0; i < n; i++ {
		obs.ObserveQuery(consumer, hotShape, []string{view.DocPrefix + "hot"})
	}
}

func placementsOf(t *testing.T, views *view.Manager, name string) []netsim.PeerID {
	t.Helper()
	ps, ok := views.PlacementsOf(name)
	if !ok {
		t.Fatalf("view %q gone", name)
	}
	return ps
}

func TestObserverDemandShapesAndDecay(t *testing.T) {
	obs := NewObserver()
	obs.ObserveQuery("c0", "shapeA", []string{"view:hot", "catalog"})
	obs.ObserveQuery("c0", "shapeA", []string{"view:hot"})
	obs.ObserveQuery("c1", "shapeB", []string{"view:hot"})
	d := obs.Demand("view:hot")
	if d["c0"] != 2 || d["c1"] != 1 {
		t.Fatalf("demand = %v", d)
	}
	if d := obs.Demand("catalog"); d["c0"] != 1 {
		t.Fatalf("catalog demand = %v", d)
	}
	if s := obs.Shapes("view:hot"); s["shapeA"] != 2 || s["shapeB"] != 1 {
		t.Fatalf("shapes = %v", s)
	}
	obs.Decay(0.5)
	if d := obs.Demand("view:hot"); d["c0"] != 1 || d["c1"] != 0.5 {
		t.Fatalf("decayed demand = %v", d)
	}
	for i := 0; i < 10; i++ {
		obs.Decay(0.1)
	}
	if d := obs.Demand("view:hot"); len(d) != 0 {
		t.Fatalf("demand should have decayed away, got %v", d)
	}
}

func TestObserverSplitsShipFromEvalTraffic(t *testing.T) {
	sys, views := testWorld(t, 60)
	obs := NewObserver()
	obs.SampleNetwork(sys.Net.Stats())
	// Materialization ships the view content with the "ship" kind.
	if err := views.Define("hot", hotViewSrc, "c0"); err != nil {
		t.Fatal(err)
	}
	obs.SampleNetwork(sys.Net.Stats())
	if r := obs.ShipRate("data", "c0"); r <= 0 {
		t.Errorf("ship rate data→c0 = %v, want > 0 after materialization", r)
	}
	if r := obs.ShipRate("data", "c1"); r != 0 {
		t.Errorf("ship rate data→c1 = %v, want 0", r)
	}
}

// TestMigratesToHottestConsumer: skewed demand pulls the view to its
// dominant reader, then the system stays put (no oscillation).
func TestMigratesToHottestConsumer(t *testing.T) {
	_, views := testWorld(t, 120)
	if err := views.Define("hot", hotViewSrc, "data"); err != nil {
		t.Fatal(err)
	}
	ctrl := New(views, Config{MaxReplicas: 1, Cooldown: 1})
	ctx := context.Background()
	inject(ctrl.Observer(), "c0", 20)
	inject(ctrl.Observer(), "c1", 2)
	decisions, err := ctrl.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 1 || decisions[0].Action != "migrate" ||
		decisions[0].From != "data" || decisions[0].To != "c0" {
		t.Fatalf("decisions = %v, want one migrate data→c0", decisions)
	}
	if ps := placementsOf(t, views, "hot"); len(ps) != 1 || ps[0] != "c0" {
		t.Fatalf("placements = %v", ps)
	}
	// Stable demand: no further moves over several rounds.
	for round := 0; round < 5; round++ {
		inject(ctrl.Observer(), "c0", 20)
		inject(ctrl.Observer(), "c1", 2)
		decisions, err := ctrl.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(decisions) != 0 {
			t.Fatalf("round %d: unexpected decisions %v (thrashing)", round, decisions)
		}
	}
	if ps := placementsOf(t, views, "hot"); len(ps) != 1 || ps[0] != "c0" {
		t.Fatalf("placement moved again: %v", ps)
	}
}

// TestReplicatesUnderSharedDemand: two strong consumers end with a
// copy each (MaxReplicas 2), and the layout then stays stable.
func TestReplicatesUnderSharedDemand(t *testing.T) {
	_, views := testWorld(t, 120)
	if err := views.Define("hot", hotViewSrc, "data"); err != nil {
		t.Fatal(err)
	}
	ctrl := New(views, Config{MaxReplicas: 2, Cooldown: 0})
	ctx := context.Background()
	actions := 0
	for round := 0; round < 8; round++ {
		inject(ctrl.Observer(), "c0", 20)
		inject(ctrl.Observer(), "c1", 15)
		ds, err := ctrl.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		actions += len(ds)
	}
	ps := placementsOf(t, views, "hot")
	has := map[netsim.PeerID]bool{}
	for _, p := range ps {
		has[p] = true
	}
	if !has["c0"] || !has["c1"] {
		t.Fatalf("placements = %v, want copies at c0 and c1", ps)
	}
	if actions > 4 {
		t.Errorf("took %d actions to converge on two copies (thrashing?)", actions)
	}
	// Converged: further rounds change nothing.
	for round := 0; round < 3; round++ {
		inject(ctrl.Observer(), "c0", 20)
		inject(ctrl.Observer(), "c1", 15)
		ds, err := ctrl.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != 0 {
			t.Fatalf("post-convergence decisions %v", ds)
		}
	}
}

// TestDemandShiftTriggersReMigration: when the hot consumer changes,
// the placement follows.
func TestDemandShiftTriggersReMigration(t *testing.T) {
	_, views := testWorld(t, 120)
	if err := views.Define("hot", hotViewSrc, "data"); err != nil {
		t.Fatal(err)
	}
	ctrl := New(views, Config{MaxReplicas: 1, Cooldown: 1})
	ctx := context.Background()
	inject(ctrl.Observer(), "c0", 20)
	if _, err := ctrl.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if ps := placementsOf(t, views, "hot"); ps[0] != "c0" {
		t.Fatalf("placements = %v", ps)
	}
	// Traffic moves to c2; demand decays, the view follows.
	moved := false
	for round := 0; round < 8 && !moved; round++ {
		inject(ctrl.Observer(), "c2", 25)
		ds, err := ctrl.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			if d.Action == "migrate" && d.To == "c2" {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("view never followed the demand shift to c2")
	}
	if ps := placementsOf(t, views, "hot"); len(ps) != 1 || ps[0] != "c2" {
		t.Fatalf("placements = %v, want [c2]", ps)
	}
}

// TestBudgetEvictsLowestBenefitPlacement: a peer over its byte budget
// sheds the placement with the least demand behind it.
func TestBudgetEvictsLowestBenefitPlacement(t *testing.T) {
	_, views := testWorld(t, 120)
	if err := views.Define("hot", hotViewSrc, "c0"); err != nil {
		t.Fatal(err)
	}
	if err := views.Define("cold",
		`for $i in doc("catalog")/item where $i/price < 480 return $i`, "c0"); err != nil {
		t.Fatal(err)
	}
	var hotBytes, total int64
	for _, pi := range views.Placements() {
		total += pi.Bytes
		if pi.View == "hot" {
			hotBytes = pi.Bytes
		}
	}
	if hotBytes == 0 || total <= hotBytes {
		t.Fatalf("bad setup: hot=%d total=%d", hotBytes, total)
	}
	ctrl := New(views, Config{
		Budgets: map[netsim.PeerID]int64{"c0": hotBytes + (total-hotBytes)/2},
	})
	inject(ctrl.Observer(), "c0", 30) // demand for hot only
	ds, err := ctrl.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	evicted := ""
	for _, d := range ds {
		if d.Action == "evict" {
			evicted = d.View
		}
	}
	if evicted != "cold" {
		t.Fatalf("decisions = %v, want eviction of cold", ds)
	}
	if _, ok := views.PlacementsOf("cold"); ok {
		t.Error("cold placement still present after eviction")
	}
	if ps := placementsOf(t, views, "hot"); len(ps) != 1 || ps[0] != "c0" {
		t.Fatalf("hot placements = %v", ps)
	}
	var after int64
	for _, pi := range views.Placements() {
		if pi.At == "c0" {
			after += pi.Bytes
		}
	}
	if budget := ctrl.cfg.Budgets["c0"]; after > budget {
		t.Errorf("still over budget: %d > %d", after, budget)
	}
}

// TestBudgetFiltersMoveTargets: a hot consumer whose budget cannot
// hold the view is never chosen as a move target — otherwise every
// round would ship the view there and evict it again immediately.
func TestBudgetFiltersMoveTargets(t *testing.T) {
	_, views := testWorld(t, 120)
	if err := views.Define("hot", hotViewSrc, "data"); err != nil {
		t.Fatal(err)
	}
	var viewBytes int64
	for _, pi := range views.Placements() {
		viewBytes = pi.Bytes
	}
	ctrl := New(views, Config{
		MaxReplicas: 1, Cooldown: 0,
		Budgets: map[netsim.PeerID]int64{"c0": viewBytes / 2},
	})
	ctx := context.Background()
	for round := 0; round < 4; round++ {
		inject(ctrl.Observer(), "c0", 25)
		ds, err := ctrl.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != 0 {
			t.Fatalf("round %d: decisions %v — shipped toward a peer that cannot hold the view", round, ds)
		}
	}
	if ps := placementsOf(t, views, "hot"); len(ps) != 1 || ps[0] != "data" {
		t.Fatalf("placements = %v, want untouched [data]", ps)
	}
}

// TestEndToEndSessionsDriveMigration wires real sessions into the
// observer (session.WithTrafficSink — the structural interface match)
// and checks that skewed query traffic migrates the view and that
// results are multiset-identical across the move.
func TestEndToEndSessionsDriveMigration(t *testing.T) {
	sys, views := testWorld(t, 120)
	if err := views.Define("hot", hotViewSrc, "data"); err != nil {
		t.Fatal(err)
	}
	ctrl := New(views, Config{MaxReplicas: 1, Cooldown: 1})
	ctx := context.Background()
	newSess := func(at netsim.PeerID) *session.Local {
		s, err := session.NewLocal(sys, views, at, session.WithTrafficSink(ctrl.Observer()))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s0, s1 := newSess("c0"), newSess("c1")
	query := func(s *session.Local) map[xmltree.Digest]int {
		t.Helper()
		rows, err := s.Query(ctx, hotShape)
		if err != nil {
			t.Fatal(err)
		}
		forest, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		counts := map[xmltree.Digest]int{}
		for _, n := range forest {
			counts[xmltree.Hash(n)]++
		}
		return counts
	}
	before := query(s0)
	if len(before) == 0 {
		t.Fatal("query returned nothing")
	}
	for i := 0; i < 19; i++ {
		query(s0)
	}
	query(s1)
	ds, err := ctrl.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	migrated := false
	for _, d := range ds {
		if d.Action == "migrate" && d.To == "c0" {
			migrated = true
		}
	}
	if !migrated {
		t.Fatalf("decisions = %v, want a migration to c0", ds)
	}
	after := query(s0)
	if fmt.Sprint(len(after)) != fmt.Sprint(len(before)) {
		t.Fatalf("row count changed across migration: %d vs %d", len(after), len(before))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatal("result multiset changed across migration")
		}
	}
	if ps := placementsOf(t, views, "hot"); len(ps) != 1 || ps[0] != "c0" {
		t.Fatalf("placements = %v", ps)
	}
	if log := ctrl.Decisions(); len(log) == 0 {
		t.Error("decision log empty")
	}
}

// TestAdaptiveBeatsStatic runs one skewed subscription workload twice
// over netsim: a selection view fixed at the data peer, and the same
// view under a controller stepped once per round. Three clients issue
// 14/4/2 of every 20 queries while the catalog grows by 5 items a
// round. Adaptive must ship fewer bytes, answer faster at the virtual-ms
// median, settle (no action in the last third of the rounds) and give
// the base's answer after every move.
func TestAdaptiveBeatsStatic(t *testing.T) {
	const (
		clients, rounds, perRound = 3, 9, 5
		viewSrc                   = `for $i in doc("catalog")/item where $i/price < 200 return $i`
		query                     = `for $i in doc("catalog")/item where $i/price < 100 return <hit>{$i/name}</hit>`
	)
	var schedule []int // client of each of a round's 20 queries
	for c, n := range []int{14, 4, 2} {
		for ; n > 0; n-- {
			schedule = append(schedule, c)
		}
	}
	type outcome struct {
		bytes     int64
		medianMs  float64
		rows      int
		actions   int
		lastRound int
	}
	run := func(adaptive bool) outcome {
		peers := []netsim.PeerID{"data", "client0", "client1", "client2"}
		net := netsim.New()
		netsim.Uniform(net, peers, wan)
		sys := core.NewSystem(net)
		for _, p := range peers {
			sys.MustAddPeer(p)
		}
		sys.Generics.SetStrategy(gendoc.Nearest{Net: net})
		defer sys.Close()
		data, _ := sys.Peer("data")
		if err := data.InstallDocument("catalog", workload.Catalog(workload.CatalogSpec{
			Items: 100, PriceMax: 1000, DescWords: 4, Seed: 31})); err != nil {
			t.Fatal(err)
		}
		views := view.NewManager(sys)
		defer views.Close()
		if err := views.Define("hot", viewSrc, "data"); err != nil {
			t.Fatal(err)
		}
		var ctrl *Controller
		var opts []session.LocalOption
		if adaptive {
			ctrl = New(views, Config{MaxReplicas: 2, Cooldown: 1})
			opts = append(opts, session.WithTrafficSink(ctrl.Observer()))
		}
		sessions := make([]*session.Local, clients)
		for i := range sessions {
			s, err := session.NewLocal(sys, views, peers[1+i], opts...)
			if err != nil {
				t.Fatal(err)
			}
			sessions[i] = s
		}
		ctx := context.Background()
		answer := func(c int) ([]*xmltree.Node, float64) {
			t.Helper()
			rows, err := sessions[c].Query(ctx, query)
			if err != nil {
				t.Fatal(err)
			}
			forest, err := rows.Collect()
			if err != nil {
				t.Fatal(err)
			}
			return forest, rows.VT()
		}
		catalog, _ := data.Document("catalog")
		var out outcome
		var latencies []float64
		for r, serial := 0, 100; r < rounds; r++ {
			for k := 0; k < perRound; k, serial = k+1, serial+1 {
				if err := data.AddChild(catalog.Root.ID, xmltree.E("item",
					xmltree.A("id", fmt.Sprintf("r%d", serial)),
					xmltree.E("name", xmltree.T(fmt.Sprintf("fresh-%d", serial))),
					xmltree.E("price", xmltree.T(fmt.Sprint(serial*37%1000))))); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := views.RefreshAll(); err != nil {
				t.Fatal(err)
			}
			for _, c := range schedule {
				forest, ms := answer(c)
				out.rows += len(forest)
				latencies = append(latencies, ms)
			}
			if ctrl == nil {
				continue
			}
			ds, err := ctrl.Step(ctx)
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			if len(ds) == 0 {
				continue
			}
			out.actions += len(ds)
			out.lastRound = r
			truth, err := data.RunQuery(xquery.MustParse(query))
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := answer(0); !sameMultiset(got, truth) {
				t.Fatalf("round %d: answers diverged after %v (%d rows vs truth %d)", r, ds, len(got), len(truth))
			}
		}
		sort.Float64s(latencies)
		out.medianMs = latencies[len(latencies)/2]
		out.bytes = sys.Net.Stats().Bytes
		return out
	}

	static, adaptive := run(false), run(true)
	t.Logf("static %+v, adaptive %+v", static, adaptive)
	if static.rows != adaptive.rows {
		t.Errorf("result rows: static %d, adaptive %d", static.rows, adaptive.rows)
	}
	if adaptive.bytes >= static.bytes {
		t.Errorf("adaptive shipped %d bytes, static %d", adaptive.bytes, static.bytes)
	}
	if adaptive.medianMs >= static.medianMs {
		t.Errorf("adaptive median %.2f ms, static %.2f ms", adaptive.medianMs, static.medianMs)
	}
	if adaptive.actions == 0 || adaptive.actions > clients+1 || adaptive.lastRound >= rounds*2/3 {
		t.Errorf("did not settle: %d actions, the last in round %d of %d", adaptive.actions, adaptive.lastRound, rounds)
	}
}

// sameMultiset compares two forests by canonical hash, ignoring order.
func sameMultiset(a, b []*xmltree.Node) bool {
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
