package rewrite

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/service"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// buildSystem creates a 3-peer system: client, data (catalog and the
// declarative services offers and cheaper), spare (an empty inbox).
func buildSystem(t testing.TB, items int) (*core.System, *Context) {
	t.Helper()
	net := netsim.New()
	sys := core.NewSystem(net)
	sys.MustAddPeer("client")
	data := sys.MustAddPeer("data")
	spare := sys.MustAddPeer("spare")
	if err := spare.InstallDocument("inbox", xmltree.E("inbox")); err != nil {
		t.Fatal(err)
	}

	cat := xmltree.NewElement("catalog")
	for i := 0; i < items; i++ {
		cat.AppendChild(xmltree.E("item",
			xmltree.A("id", fmt.Sprint(i)),
			xmltree.E("name", xmltree.T(fmt.Sprintf("product-%d", i))),
			xmltree.E("price", xmltree.T(fmt.Sprint((i*37)%200))),
		))
	}
	if err := data.InstallDocument("catalog", cat); err != nil {
		t.Fatal(err)
	}
	q := xquery.MustParse(`for $i in doc("catalog")/item return <offer>{$i/name, $i/price}</offer>`)
	if err := data.RegisterService(&service.Service{Name: "offers", Provider: "data", Body: q}); err != nil {
		t.Fatal(err)
	}
	q = xquery.MustParse(`param $max; for $i in doc("catalog")/item where $i/price < $max return <offer>{$i/name}</offer>`)
	if err := data.RegisterService(&service.Service{Name: "cheaper", Provider: "data", Body: q}); err != nil {
		t.Fatal(err)
	}
	return sys, &Context{Sys: sys, At: "client"}
}

func TestSelectionPushdownRule(t *testing.T) {
	_, ctx := buildSystem(t, 10)
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 50 return $i/name`)
	e := &core.Query{Q: q, At: "client"}
	alts := SelectionPushdown{}.Apply(e, "client", ctx)
	if len(alts) != 1 {
		t.Fatalf("alternatives = %d, want 1", len(alts))
	}
	// The rewritten plan delegates the selection to the data peer.
	rewritten := alts[0].(*core.Query)
	if len(rewritten.Args) != 1 {
		t.Fatalf("rewritten args = %d", len(rewritten.Args))
	}
	ev, ok := rewritten.Args[0].(*core.EvalAt)
	if !ok || ev.At != "data" {
		t.Fatalf("arg is not a delegation to data: %T", rewritten.Args[0])
	}
}

func TestSelectionPushdownSkipsLocalDoc(t *testing.T) {
	sys, ctx := buildSystem(t, 5)
	// Install the same doc name at the client: now the client itself
	// hosts it and only the remote copy generates a rewrite.
	client, _ := sys.Peer("client")
	if err := client.InstallDocument("catalog", xmltree.E("catalog")); err != nil {
		t.Fatal(err)
	}
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 50 return $i/name`)
	alts := SelectionPushdown{}.Apply(&core.Query{Q: q, At: "client"}, "client", ctx)
	for _, a := range alts {
		ev := a.(*core.Query).Args[0].(*core.EvalAt)
		if ev.At == "client" {
			t.Error("pushdown to the local peer is pointless")
		}
	}
}

func TestDelegateRule(t *testing.T) {
	_, ctx := buildSystem(t, 5)
	q := xquery.MustParse(`doc("catalog")/item/name`)
	e := &core.Query{Q: q, At: "client"}
	alts := Delegate{}.Apply(e, "client", ctx)
	if len(alts) != 2 { // data + spare
		t.Fatalf("delegate alternatives = %d, want 2", len(alts))
	}
	for _, a := range alts {
		ev := a.(*core.EvalAt)
		// The delegated copy is re-homed to the target (the query text
		// travels inside the plan).
		inner, ok := ev.E.(*core.Query)
		if !ok || inner.At != ev.At {
			t.Errorf("delegated query not re-homed: %s", ev.String())
		} else if inner.Q.String() != q.String() {
			t.Errorf("delegation lost the query: %s", ev.String())
		}
	}
	// Non-queries are not delegated.
	if alts := (Delegate{}).Apply(&core.Doc{Name: "catalog", At: "data"}, "client", ctx); alts != nil {
		t.Error("Delegate should only apply to queries")
	}
}

func TestRouteIntroRule(t *testing.T) {
	_, ctx := buildSystem(t, 3)
	snd := &core.Send{
		Dest:    core.DestPeer{P: "data"},
		Payload: &core.Tree{Node: xmltree.E("x"), At: "client"},
	}
	intro := RouteIntro{}.Apply(snd, "client", ctx)
	if len(intro) != 1 { // only "spare" (not self, not dest)
		t.Fatalf("routeIntro alternatives = %d, want 1", len(intro))
	}
	relay := intro[0].(*core.Relay)
	if len(relay.Via) != 1 || relay.Via[0] != "spare" {
		t.Fatalf("via = %v", relay.Via)
	}
	// A relay gains stops it does not already make.
	if more := (RouteIntro{}).Apply(relay, "client", ctx); len(more) != 0 {
		t.Errorf("a relay via every other peer gained %d more routes", len(more))
	}
}

func TestShareTransferRule(t *testing.T) {
	_, ctx := buildSystem(t, 3)
	q := xquery.MustParse(`param $a, $b; <pair>{$a/item[1], $b/item[2]}</pair>`)
	e := &core.Query{Q: q, At: "client", Args: []core.Expr{
		&core.Doc{Name: "catalog", At: "data"},
		&core.Doc{Name: "catalog", At: "data"},
	}}
	alts := ShareTransfer{}.Apply(e, "client", ctx)
	if len(alts) != 1 {
		t.Fatalf("shareTransfer alternatives = %d", len(alts))
	}
	shared := alts[0].(*core.Query)
	if !shared.ShareArgs {
		t.Error("ShareArgs not set")
	}
	if again := (ShareTransfer{}).Apply(shared, "client", ctx); again != nil {
		t.Error("shared arguments were shared again")
	}
	// Distinct args: no rewrite.
	e2 := &core.Query{Q: q, At: "client", Args: []core.Expr{
		&core.Doc{Name: "catalog", At: "data"},
		&core.Doc{Name: "other", At: "data"},
	}}
	if alts := (ShareTransfer{}).Apply(e2, "client", ctx); alts != nil {
		t.Error("distinct args should not share")
	}
}

func TestScRelocateRule(t *testing.T) {
	sys, ctx := buildSystem(t, 3)
	client, _ := sys.Peer("client")
	if err := client.InstallDocument("inbox", xmltree.E("inbox")); err != nil {
		t.Fatal(err)
	}
	h := client.Snapshot()
	inbox, err := h.Root("inbox")
	h.Release()
	if err != nil {
		t.Fatal(err)
	}
	sc := &core.ServiceCall{
		Provider: "data", Service: "offers",
		Forward: []peer.NodeRef{{Peer: "client", Node: inbox.ID}},
	}
	alts := ScRelocate{}.Apply(sc, "client", ctx)
	if len(alts) != 1 {
		t.Fatalf("scRelocate alternatives = %d", len(alts))
	}
	ev := alts[0].(*core.EvalAt)
	if ev.At != "data" {
		t.Errorf("relocated to %s, want data", ev.At)
	}
	// Without forwards: no rewrite (results must return to caller).
	noFw := &core.ServiceCall{Provider: "data", Service: "offers"}
	if alts := (ScRelocate{}).Apply(noFw, "client", ctx); alts != nil {
		t.Error("relocation without forwards changes semantics")
	}
}

func TestPushOverCallRule(t *testing.T) {
	_, ctx := buildSystem(t, 3)
	q := xquery.MustParse(`param $in; for $o in $in where $o/price < 50 return $o/name`)
	e := &core.Query{Q: q, At: "client", Args: []core.Expr{
		&core.ServiceCall{Provider: "data", Service: "offers"},
	}}
	alts := PushOverCall{}.Apply(e, "client", ctx)
	if len(alts) != 1 {
		t.Fatalf("pushOverCall alternatives = %d", len(alts))
	}
	ev := alts[0].(*core.EvalAt)
	if ev.At != "data" {
		t.Errorf("pushed to %s", ev.At)
	}
	// Builtin (opaque) services cannot be pushed over.
	sys := ctx.Sys
	data, _ := sys.Peer("data")
	if err := data.RegisterService(&service.Service{
		Name: "opaque", Provider: "data",
		Builtin: func(args [][]*xmltree.Node) ([]*xmltree.Node, error) { return nil, nil },
	}); err != nil {
		t.Fatal(err)
	}
	e2 := &core.Query{Q: q, At: "client", Args: []core.Expr{
		&core.ServiceCall{Provider: "data", Service: "opaque"},
	}}
	if alts := (PushOverCall{}).Apply(e2, "client", ctx); alts != nil {
		t.Error("opaque service should not be pushed over (body invisible)")
	}
}

func TestAlternativesEnumeratesPositions(t *testing.T) {
	_, ctx := buildSystem(t, 5)
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 50 return $i/name`)
	e := &core.EvalAt{At: "data", E: &core.Query{Q: q, At: "data"}}
	alts := Alternatives(e, ctx, DefaultRules())
	if len(alts) == 0 {
		t.Fatal("no alternatives found")
	}
	// The inner query evaluates at data — a pushdown there must not
	// appear (the doc is local to data). Delegations of the inner
	// query should appear, tagged with the /eval position.
	sawInner := false
	for _, d := range alts {
		if strings.HasPrefix(d.Pos, "/eval") {
			sawInner = true
		}
		if d.Rule == "pushSelection(11)" && d.Pos == "/eval" {
			t.Errorf("pushdown applied at data where the doc is local")
		}
	}
	if !sawInner {
		t.Error("no alternatives at inner positions")
	}
}

// --- Soundness property test -------------------------------------------

// canonicalForest gives an order-insensitive fingerprint of a forest.
func canonicalForest(forest []*xmltree.Node) string {
	keys := make([]string, len(forest))
	for i, n := range forest {
		keys[i] = xmltree.Canonical(n)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x00")
}

// exprPool builds a deterministic set of expressions covering the rule
// shapes, parameterized by a seed. The last two write into the inbox at
// spare, whose root has the same identifier on every system buildSystem
// makes.
func exprPool(r *rand.Rand, sys *core.System) []core.Expr {
	threshold := r.Intn(200)
	q1 := xquery.MustParse(fmt.Sprintf(
		`for $i in doc("catalog")/item where $i/price < %d return <r>{$i/name/text()}</r>`, threshold))
	q2 := xquery.MustParse(`param $in; for $o in $in where $o/price < 100 return $o/name`)
	q3 := xquery.MustParse(`param $a, $b; <pair>{count($a/item), count($b/item)}</pair>`)
	inbox := []peer.NodeRef{{Peer: "spare", Node: inboxRoot(sys).ID}}
	limit := xmltree.E("max", xmltree.T(fmt.Sprint(threshold)))
	return []core.Expr{
		&core.Query{Q: q1, At: "client"},
		&core.Query{Q: q2, At: "client", Args: []core.Expr{
			&core.ServiceCall{Provider: "data", Service: "offers"},
		}},
		&core.Query{Q: q3, At: "client", Args: []core.Expr{
			&core.Doc{Name: "catalog", At: "data"},
			&core.Doc{Name: "catalog", At: "data"},
		}},
		&core.EvalAt{At: "data", E: &core.Query{Q: q1, At: "data"}},
		&core.Send{Dest: core.DestNodes{Refs: inbox}, Payload: &core.Tree{Node: limit, At: "client"}},
		&core.ServiceCall{Provider: "data", Service: "cheaper",
			Params:  []core.Expr{&core.Tree{Node: xmltree.DeepCopy(limit), At: "data"}},
			Forward: inbox},
	}
}

// inboxRoot returns the newest root of the inbox at spare.
func inboxRoot(sys *core.System) *xmltree.Node {
	spare, _ := sys.Peer("spare")
	h := spare.Snapshot()
	defer h.Release()
	root, err := h.Root("inbox")
	if err != nil {
		panic(err)
	}
	return root
}

// outcome is what evaluating e at client leaves behind: the result
// forest and the inbox at spare, each order-insensitively.
func outcome(sys *core.System, e core.Expr) (string, error) {
	res, err := sys.Eval("client", e)
	if err != nil {
		return "", err
	}
	return canonicalForest(res.Forest) + "\x01" + canonicalForest(inboxRoot(sys).Children), nil
}

// Property: every single-rule derivation of an expression evaluates to
// the same result forest, and leaves the same system state, as the
// original (rule soundness, §3.3's equivalence ≡). Evaluations run on
// fresh systems so state cannot leak between the two plans. Each seed
// checks every shape of the pool and up to two alternatives of each
// rule per shape, and every default rule must have been checked.
func TestQuickRewriteSoundness(t *testing.T) {
	checked := map[string]int{}
	f := func(seed int64) bool {
		items := rand.New(rand.NewSource(seed)).Intn(20) + 3
		sysA, ctx := buildSystem(t, items)
		for i, base := range exprPool(rand.New(rand.NewSource(seed)), sysA) {
			sysB, _ := buildSystem(t, items)
			want, err := outcome(sysB, base)
			if err != nil {
				t.Logf("base eval of shape %d failed: %v", i, err)
				return false
			}
			perRule := map[string]int{}
			for _, d := range Alternatives(base, ctx, DefaultRules()) {
				if perRule[d.Rule]++; perRule[d.Rule] > 2 {
					continue
				}
				checked[d.Rule]++
				sysC, _ := buildSystem(t, items)
				got, err := outcome(sysC, d.E)
				if err != nil {
					t.Logf("derived eval failed (%s at %s): %v", d.Rule, d.Pos, err)
					return false
				}
				if got != want {
					t.Logf("result mismatch for rule %s at %s:\nplan: %s", d.Rule, d.Pos, d.E.String())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	for _, r := range DefaultRules() {
		if checked[r.Name()] == 0 {
			t.Errorf("no alternative of %s was checked", r.Name())
		}
	}
	t.Logf("alternatives checked per rule: %v", checked)
}
