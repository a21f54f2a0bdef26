package opt

import (
	"fmt"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/rewrite"
	"axml/internal/service"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// buildSystem: client, data (big catalog + declarative service), spare.
func buildSystem(t testing.TB, items int) *core.System {
	t.Helper()
	net := netsim.New()
	netsim.Uniform(net, []netsim.PeerID{"client", "data", "spare"}, netsim.Link{LatencyMs: 5, BytesPerMs: 500})
	sys := core.NewSystem(net)
	sys.MustAddPeer("client")
	data := sys.MustAddPeer("data")
	sys.MustAddPeer("spare")

	cat := xmltree.NewElement("catalog")
	for i := 0; i < items; i++ {
		cat.AppendChild(xmltree.E("item",
			xmltree.A("id", fmt.Sprint(i)),
			xmltree.E("name", xmltree.T(fmt.Sprintf("product-%d", i))),
			xmltree.E("price", xmltree.T(fmt.Sprint((i*37)%200))),
			xmltree.E("desc", xmltree.T(strings.Repeat("lorem ipsum ", 5))),
		))
	}
	if err := data.InstallDocument("catalog", cat); err != nil {
		t.Fatal(err)
	}
	q := xquery.MustParse(`for $i in doc("catalog")/item return <offer>{$i/name, $i/price}</offer>`)
	if err := data.RegisterService(&service.Service{Name: "offers", Provider: "data", Body: q}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestEstimateRemoteDocCostsMoreThanLocal(t *testing.T) {
	sys := buildSystem(t, 50)
	es := NewEstimator(sys)
	remote, err := es.Estimate("client", &core.Doc{Name: "catalog", At: "data"})
	if err != nil {
		t.Fatal(err)
	}
	local, err := es.Estimate("data", &core.Doc{Name: "catalog", At: "data"})
	if err != nil {
		t.Fatal(err)
	}
	if remote.Bytes <= local.Bytes || remote.Messages == 0 {
		t.Errorf("remote=%+v local=%+v", remote, local)
	}
	if local.Bytes != 0 || local.Messages != 0 {
		t.Errorf("local doc should be free: %+v", local)
	}
}

func TestEstimateErrors(t *testing.T) {
	sys := buildSystem(t, 5)
	es := NewEstimator(sys)
	if _, err := es.Estimate("client", &core.Doc{Name: "ghost", At: "data"}); err == nil {
		t.Error("unknown doc should error")
	}
	if _, err := es.Estimate("client", &core.Doc{Name: "x", At: "ghostpeer"}); err == nil {
		t.Error("unknown peer should error")
	}
	q := xquery.MustParse(`doc("ghost")/x`)
	if _, err := es.Estimate("client", &core.Query{Q: q, At: "client"}); err == nil {
		t.Error("query over unknown doc should error")
	}
}

func TestOptimizerPicksSelectionPushdown(t *testing.T) {
	sys := buildSystem(t, 200)
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 10 return $i/name`)
	e := &core.Query{Q: q, At: "client"}

	plan, explored, err := Optimize(sys, "client", e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if explored < 2 {
		t.Errorf("explored only %d plans", explored)
	}
	if len(plan.Derivation) == 0 {
		t.Fatal("optimizer kept the naive plan for a highly selective query")
	}
	foundPush := false
	for _, step := range plan.Derivation {
		if strings.Contains(step, "pushSelection") || strings.Contains(step, "delegate") {
			foundPush = true
		}
	}
	if !foundPush {
		t.Errorf("derivation lacks pushdown/delegation: %v", plan.Derivation)
	}

	// The predicted winner must actually win: measure both plans.
	naiveSys := buildSystem(t, 200)
	if _, err := naiveSys.Eval("client", e); err != nil {
		t.Fatal(err)
	}
	naiveBytes := naiveSys.Net.Stats().Bytes

	optSys := buildSystem(t, 200)
	res, err := optSys.Eval("client", plan.Expr)
	if err != nil {
		t.Fatal(err)
	}
	optBytes := optSys.Net.Stats().Bytes
	if optBytes >= naiveBytes {
		t.Errorf("optimized plan moved %d bytes, naive %d", optBytes, naiveBytes)
	}
	// And the results agree.
	direct, _ := naiveSys.Eval("client", e)
	if len(res.Forest) != len(direct.Forest) {
		t.Errorf("result count: optimized %d vs naive %d", len(res.Forest), len(direct.Forest))
	}
}

func TestOptimizerKeepsLocalPlan(t *testing.T) {
	sys := buildSystem(t, 50)
	// Query over a doc at the evaluation site: nothing to improve.
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 10 return $i/name`)
	e := &core.Query{Q: q, At: "data"}
	plan, _, err := Optimize(sys, "data", e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Derivation) != 0 {
		t.Errorf("local plan should stay local, got %v", plan.Derivation)
	}
}

func TestOptimizerPushesQueryOverCall(t *testing.T) {
	sys := buildSystem(t, 200)
	q := xquery.MustParse(`param $in; for $o in $in where $o/price < 10 return $o/name`)
	e := &core.Query{Q: q, At: "client", Args: []core.Expr{
		&core.ServiceCall{Provider: "data", Service: "offers"},
	}}
	plan, _, err := Optimize(sys, "client", e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, step := range plan.Derivation {
		if strings.Contains(step, "pushOverCall") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected pushOverCall in derivation, got %v", plan.Derivation)
	}
}

func TestOptimizerShareTransfer(t *testing.T) {
	sys := buildSystem(t, 100)
	q := xquery.MustParse(`param $a, $b; <pair>{count($a/item), count($b/item)}</pair>`)
	e := &core.Query{Q: q, At: "client", Args: []core.Expr{
		&core.Doc{Name: "catalog", At: "data"},
		&core.Doc{Name: "catalog", At: "data"},
	}}
	plan, _, err := Optimize(sys, "client", e, Options{
		Rules: []rewrite.Rule{rewrite.ShareTransfer{}, rewrite.UnshareTransfer{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pq, ok := plan.Expr.(*core.Query)
	if !ok || !pq.ShareArgs {
		t.Errorf("optimizer should enable transfer sharing: %s", plan.Expr.String())
	}
}

func TestOptimizerRulesAblation(t *testing.T) {
	sys := buildSystem(t, 200)
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 10 return $i/name`)
	e := &core.Query{Q: q, At: "client"}
	// With no rules, the plan cannot change.
	plan, explored, err := Optimize(sys, "client", e, Options{Rules: []rewrite.Rule{}})
	if err != nil {
		t.Fatal(err)
	}
	if explored != 1 || len(plan.Derivation) != 0 {
		t.Errorf("empty rule set: explored=%d deriv=%v", explored, plan.Derivation)
	}
	// With only pushdown the plan must use it.
	plan2, _, err := Optimize(sys, "client", e, Options{
		Rules: []rewrite.Rule{rewrite.SelectionPushdown{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan2.Derivation) != 1 || !strings.Contains(plan2.Derivation[0], "pushSelection") {
		t.Errorf("deriv = %v", plan2.Derivation)
	}
	if plan2.Cost >= plan.Cost {
		t.Errorf("pushdown plan should be cheaper: %v vs %v", plan2.Cost, plan.Cost)
	}
}

// TestDefaultRulesBeatNaiveOnMixedWorkload measures, rather than
// estimates, a workload that needs three different rules — a selective
// remote query (11), a filter over a service call (16) and a query
// reading one remote document twice (13): the plans the default rule
// set picks ship fewer bytes than the unrewritten ones, with the same
// answers.
func TestDefaultRulesBeatNaiveOnMixedWorkload(t *testing.T) {
	workload := []core.Expr{
		&core.Query{Q: xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 30 return <hit>{$i/name}</hit>`), At: "client"},
		&core.Query{Q: xquery.MustParse(`param $in; for $o in $in where $o/price < 50 return $o/name`), At: "client",
			Args: []core.Expr{&core.ServiceCall{Provider: "data", Service: "offers"}}},
		&core.Query{Q: xquery.MustParse(`param $a, $b; <cmp>{count($a/item), count($b/item)}</cmp>`), At: "client",
			Args: []core.Expr{&core.Doc{Name: "catalog", At: "data"}, &core.Doc{Name: "catalog", At: "data"}}},
	}
	run := func(rules []rewrite.Rule) (bytes int64, answers []string) {
		sys := buildSystem(t, 150)
		defer sys.Close()
		for _, e := range workload {
			plan := e
			if rules != nil {
				best, _, err := Optimize(sys, "client", e, Options{Rules: rules})
				if err != nil {
					t.Fatal(err)
				}
				plan = best.Expr
			}
			res, err := sys.Eval("client", plan)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, n := range res.Forest {
				sb.WriteString(xmltree.Serialize(n))
			}
			answers = append(answers, sb.String())
		}
		return sys.Net.Stats().Bytes, answers
	}
	naiveBytes, naive := run(nil)
	fullBytes, full := run(rewrite.DefaultRules())
	t.Logf("naive plans %d bytes, default rules %d", naiveBytes, fullBytes)
	if fullBytes >= naiveBytes {
		t.Errorf("default rules shipped %d bytes, naive plans %d", fullBytes, naiveBytes)
	}
	for i := range naive {
		if full[i] != naive[i] {
			t.Errorf("query %d: rewritten plan answered %s, naive %s", i, full[i], naive[i])
		}
	}
}

func TestOptimizerRerouteOnSlowLink(t *testing.T) {
	net := netsim.New()
	sys := core.NewSystem(net)
	sys.MustAddPeer("src")
	sys.MustAddPeer("dst")
	sys.MustAddPeer("hub")
	// Slow direct link, fast two-hop route through the hub — the case
	// where rule (12) applied right-to-left wins.
	net.SetLinkBoth("src", "dst", netsim.Link{LatencyMs: 200, BytesPerMs: 10})
	net.SetLinkBoth("src", "hub", netsim.Link{LatencyMs: 5, BytesPerMs: 1000})
	net.SetLinkBoth("hub", "dst", netsim.Link{LatencyMs: 5, BytesPerMs: 1000})

	payload := xmltree.E("blob", xmltree.T(strings.Repeat("x", 5000)))
	e := &core.Send{Dest: core.DestPeer{P: "dst"}, Payload: &core.Tree{Node: payload, At: "src"}}
	plan, _, err := Optimize(sys, "src", e, Options{
		Rules: []rewrite.Rule{rewrite.RouteIntro{}, rewrite.RouteElim{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	relay, ok := plan.Expr.(*core.Relay)
	if !ok || len(relay.Via) != 1 || relay.Via[0] != "hub" {
		t.Fatalf("expected relay via hub, got %s", plan.Expr.String())
	}
	// And measured VT agrees: relayed beats direct.
	directSys := freshRouteSystem(t)
	dRes, err := directSys.Eval("src", &core.Send{
		Dest: core.DestPeer{P: "dst"}, Payload: &core.Tree{Node: xmltree.DeepCopy(payload), At: "src"}})
	if err != nil {
		t.Fatal(err)
	}
	relaySys := freshRouteSystem(t)
	rRes, err := relaySys.Eval("src", &core.Relay{
		Via: []netsim.PeerID{"hub"}, Dest: core.DestPeer{P: "dst"},
		Payload: &core.Tree{Node: xmltree.DeepCopy(payload), At: "src"}})
	if err != nil {
		t.Fatal(err)
	}
	if rRes.VT >= dRes.VT {
		t.Errorf("relayed VT %v should beat direct %v", rRes.VT, dRes.VT)
	}
}

func freshRouteSystem(t *testing.T) *core.System {
	t.Helper()
	net := netsim.New()
	sys := core.NewSystem(net)
	sys.MustAddPeer("src")
	sys.MustAddPeer("dst")
	sys.MustAddPeer("hub")
	net.SetLinkBoth("src", "dst", netsim.Link{LatencyMs: 200, BytesPerMs: 10})
	net.SetLinkBoth("src", "hub", netsim.Link{LatencyMs: 5, BytesPerMs: 1000})
	net.SetLinkBoth("hub", "dst", netsim.Link{LatencyMs: 5, BytesPerMs: 1000})
	return sys
}

func TestPlanString(t *testing.T) {
	sys := buildSystem(t, 10)
	q := xquery.MustParse(`doc("catalog")/item/name`)
	plan, _, err := Optimize(sys, "client", &core.Query{Q: q, At: "client"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := plan.String()
	if !strings.Contains(s, "cost=") || !strings.Contains(s, "bytes=") {
		t.Errorf("Plan.String = %q", s)
	}
}

func TestEstimateServiceCallWithForward(t *testing.T) {
	sys := buildSystem(t, 50)
	client, _ := sys.Peer("client")
	if err := client.InstallDocument("inbox", xmltree.E("inbox")); err != nil {
		t.Fatal(err)
	}
	inbox, _ := client.Document("inbox")
	es := NewEstimator(sys)
	withFw, err := es.Estimate("client", &core.ServiceCall{
		Provider: "data", Service: "offers",
		Forward: []peer.NodeRef{{Peer: "client", Node: inbox.Root.ID}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if withFw.OutBytes != 0 {
		t.Errorf("forwarded call should return no local bytes: %+v", withFw)
	}
	noFw, err := es.Estimate("client", &core.ServiceCall{Provider: "data", Service: "offers"})
	if err != nil {
		t.Fatal(err)
	}
	if noFw.OutBytes == 0 {
		t.Errorf("plain call returns data: %+v", noFw)
	}
}

// Every session plans beside writers: the estimator must read a
// document's size without racing the store's commits (run under -race).
func TestOptimizeBesideWriter(t *testing.T) {
	sys := buildSystem(t, 50)
	data, _ := sys.Peer("data")
	catalog, _ := data.Document("catalog")
	rootID := catalog.Root.ID
	e := &core.Query{Q: xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 10 return $i/name`), At: "client"}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			if err := data.AddChild(rootID, xmltree.E("item", xmltree.E("price", xmltree.T("5")))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		if _, _, err := Optimize(sys, "client", e, Options{}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// Same inputs, same plan: with the document replicated at two peers the
// delegation to either costs the same, and the tie must not be broken
// by map iteration order.
func TestOptimizeSamePlanOnFreshSystems(t *testing.T) {
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 10 return $i/name`)
	plans := map[string]int{}
	for i := 0; i < 40; i++ {
		net := netsim.New()
		ids := []netsim.PeerID{"client", "a", "b"}
		netsim.Uniform(net, ids, netsim.Link{LatencyMs: 5, BytesPerMs: 500})
		sys := core.NewSystem(net)
		for _, id := range ids {
			p := sys.MustAddPeer(id)
			if id == "client" {
				continue
			}
			if err := p.InstallDocument("catalog", workload.Catalog(workload.CatalogSpec{Items: 50, Seed: 1})); err != nil {
				t.Fatal(err)
			}
		}
		plan, _, err := Optimize(sys, "client", &core.Query{Q: q, At: "client"}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		plans[plan.String()]++
	}
	if len(plans) != 1 {
		t.Errorf("40 fresh systems chose %d different plans: %v", len(plans), plans)
	}
}

func TestCountConjuncts(t *testing.T) {
	cases := []struct {
		where string
		want  int
	}{
		{`$i/price < 10`, 1},
		{`$i/price < 10 and $i/@cat = "light"`, 2},
		{`$i/price < 10 and $i/@cat = "light" and $i/name`, 3},
		{`$i/name = "salt and pepper"`, 1},
		{`$i/price < 10 or $i/price > 90`, 1},
	}
	es := NewEstimator(nil)
	for _, tc := range cases {
		q := xquery.MustParse(`for $i in doc("catalog")/item where ` + tc.where + ` return $i`)
		where := q.Body.(*xquery.FLWR).Where.(*xquery.Path)
		if got := countConjuncts(where.X); got != tc.want {
			t.Errorf("countConjuncts(%s) = %d, want %d", tc.where, got, tc.want)
		}
		want := 1.0
		for i := 0; i < tc.want; i++ {
			want *= es.SelPerPredicate
		}
		want *= es.ProjFactor
		if got := es.QuerySelectivity(q); got != want {
			t.Errorf("selectivity of %s = %v, want %v", tc.where, got, want)
		}
	}
}
