package core

import (
	"context"
	"strings"
	"testing"

	"axml/internal/gendoc"
	"axml/internal/netsim"
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/service"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

const catalogXML = `<catalog>
  <item id="1" cat="furniture"><name>chair</name><price>30</price></item>
  <item id="2" cat="furniture"><name>desk</name><price>120</price></item>
  <item id="3" cat="light"><name>lamp</name><price>15</price></item>
</catalog>`

// twoPeerSystem builds p1 (client) and p2 (data peer with "catalog").
func twoPeerSystem(t *testing.T) (*System, *peer.Peer, *peer.Peer) {
	t.Helper()
	net := netsim.New()
	sys := NewSystem(net)
	p1 := sys.MustAddPeer("p1")
	p2 := sys.MustAddPeer("p2")
	if err := p2.InstallDocument("catalog", xmltree.MustParse(catalogXML)); err != nil {
		t.Fatal(err)
	}
	return sys, p1, p2
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

func TestEvalLocalTree(t *testing.T) {
	sys, p1, _ := twoPeerSystem(t)
	tree := xmltree.MustParse(`<a><b>x</b></a>`)
	res, err := sys.Eval(p1.ID, &Tree{Node: tree, At: p1.ID})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(res.Forest) != 1 || !xmltree.Equal(res.Forest[0], tree) {
		t.Errorf("result = %v", res.Forest)
	}
	// Local evaluation moves nothing.
	if st := sys.Net.Stats(); st.Messages != 0 {
		t.Errorf("local eval sent %d messages", st.Messages)
	}
}

func TestEvalRemoteTreeDef5(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	tree := xmltree.MustParse(`<a><b>x</b></a>`)
	res, err := sys.Eval(p1.ID, &Tree{Node: tree, At: p2.ID})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(res.Forest) != 1 || !xmltree.Equal(res.Forest[0], tree) {
		t.Errorf("result wrong")
	}
	st := sys.Net.Stats()
	if st.Messages != 2 { // request + reply
		t.Errorf("messages = %d, want 2", st.Messages)
	}
	if res.VT <= 0 {
		t.Errorf("VT = %v", res.VT)
	}
}

func TestEvalLocalAndRemoteDoc(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	// Local.
	res, err := sys.Eval(p2.ID, &Doc{Name: "catalog", At: p2.ID})
	if err != nil {
		t.Fatalf("local doc: %v", err)
	}
	if len(res.Forest) != 1 || res.Forest[0].Label != "catalog" {
		t.Error("local doc result wrong")
	}
	if st := sys.Net.Stats(); st.Messages != 0 {
		t.Errorf("local doc moved %d messages", st.Messages)
	}
	// Remote: the whole document ships.
	res, err = sys.Eval(p1.ID, &Doc{Name: "catalog", At: p2.ID})
	if err != nil {
		t.Fatalf("remote doc: %v", err)
	}
	if len(res.Forest) != 1 || len(res.Forest[0].FindAll("item")) != 3 {
		t.Error("remote doc result wrong")
	}
	st := sys.Net.Stats()
	if st.Messages != 2 {
		t.Errorf("messages = %d", st.Messages)
	}
	if st.Bytes < int64(len(catalogXML)/2) {
		t.Errorf("bytes = %d, suspiciously small", st.Bytes)
	}
	// Unknown doc errors.
	if _, err := sys.Eval(p1.ID, &Doc{Name: "ghost", At: p2.ID}); err == nil {
		t.Error("unknown doc should error")
	}
}

func TestEvalQueryOverLocalDoc(t *testing.T) {
	sys, _, p2 := twoPeerSystem(t)
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 100 return $i/name`)
	res, err := sys.Eval(p2.ID, &Query{Q: q, At: p2.ID})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(res.Forest) != 2 {
		t.Errorf("results = %d", len(res.Forest))
	}
	if res.VT <= 0 {
		t.Error("query compute cost not charged")
	}
}

func TestEvalQueryWithArgs(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	// Query at p1 applied to the remote doc: definition (7) naive plan —
	// the document ships to p1, the query runs there.
	q := xquery.MustParse(`param $in; for $i in $in/item where $i/price < 100 return $i/name`)
	res, err := sys.Eval(p1.ID, &Query{
		Q: q, At: p1.ID,
		Args: []Expr{&Doc{Name: "catalog", At: p2.ID}},
	})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(res.Forest) != 2 {
		t.Errorf("results = %d", len(res.Forest))
	}
	st := sys.Net.Stats()
	if st.Messages != 2 {
		t.Errorf("messages = %d, want 2 (doc fetch)", st.Messages)
	}
}

func TestQueryArityMismatch(t *testing.T) {
	sys, p1, _ := twoPeerSystem(t)
	q := xquery.MustParse(`param $a, $b; $a`)
	_, err := sys.Eval(p1.ID, &Query{Q: q, At: p1.ID, Args: []Expr{
		&Tree{Node: xmltree.E("x"), At: p1.ID},
	}})
	if err == nil || !strings.Contains(err.Error(), "parameter") {
		t.Errorf("arity mismatch not caught: %v", err)
	}
}

func TestSendToPeerCreatesAnchor(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	tree := xmltree.MustParse(`<payload>data</payload>`)
	res, err := sys.Eval(p1.ID, &Send{
		Dest:    DestPeer{P: p2.ID},
		Payload: &Tree{Node: tree, At: p1.ID},
	})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	// The send returns ∅ locally (definition (3)).
	if len(res.Forest) != 0 {
		t.Errorf("send returned data: %v", res.Forest)
	}
	if len(res.Anchors) != 1 || res.Anchors[0].Peer != p2.ID {
		t.Fatalf("anchors = %v", res.Anchors)
	}
	landed, ok := p2.NodeByID(res.Anchors[0].Node)
	if !ok {
		t.Fatal("anchor not found at destination")
	}
	if len(landed.Children) != 1 || !xmltree.Equal(landed.Children[0], tree) {
		t.Errorf("landed data wrong: %s", xmltree.Serialize(landed))
	}
}

func TestSendToNodes(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	ref := peer.NodeRef{Peer: p2.ID, Node: docRoot(t, p2, "catalog").ID}
	tree := xmltree.E("extra", "new item")
	_, err := sys.Eval(p1.ID, &Send{
		Dest:    DestNodes{Refs: []peer.NodeRef{ref}},
		Payload: &Tree{Node: tree, At: p1.ID},
	})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if docRoot(t, p2, "catalog").FirstChildElement("extra") == nil {
		t.Error("tree did not land under target node")
	}
}

// TestShipLandsAllOrNothing: a shipped forest lands as one transaction.
// A tombstone for a node that is not there fails the landing, and the
// rows before it in the forest do not land either, whether the forest
// crossed the network or not.
func TestShipLandsAllOrNothing(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	ref := peer.NodeRef{Peer: p2.ID, Node: docRoot(t, p2, "catalog").ID}
	forest := []*xmltree.Node{xmltree.E("row"), xmltree.E("row"), Retraction(99999)}
	for _, from := range []netsim.PeerID{p1.ID, p2.ID} {
		epoch, text := p2.Epoch(), xmltree.Serialize(docRoot(t, p2, "catalog"))
		if _, err := sys.ShipForest(context.Background(), from, ref, forest, 0); err == nil {
			t.Fatalf("from %s: a tombstone for an absent node landed", from)
		}
		if now := xmltree.Serialize(docRoot(t, p2, "catalog")); p2.Epoch() != epoch || now != text {
			t.Errorf("from %s: the failed landing left %s at epoch %d (was %d)",
				from, now, p2.Epoch(), epoch)
		}
	}
	// The rows alone land together, as one epoch.
	epoch := p2.Epoch()
	if _, err := sys.ShipForest(context.Background(), p1.ID, ref, forest[:2], 0); err != nil {
		t.Fatal(err)
	}
	if got := len(docRoot(t, p2, "catalog").ChildElementsByLabel("row")); got != 2 || p2.Epoch() != epoch+1 {
		t.Errorf("%d rows landed over %d epochs, want 2 over 1", got, p2.Epoch()-epoch)
	}
}

func TestSendUndefinedForForeignPayload(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	// p1 evaluates send of a tree located at p2: undefined (§3.2).
	tree := xmltree.E("x")
	_, err := sys.Eval(p1.ID, &Send{
		Dest:    DestPeer{P: p2.ID},
		Payload: &Tree{Node: tree, At: p2.ID},
	})
	if err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Errorf("foreign payload send should be undefined, got %v", err)
	}
}

func TestSendInstallDocument(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	tree := xmltree.MustParse(`<report><line>a</line></report>`)
	_, err := sys.Eval(p1.ID, &Send{
		Dest:    DestDoc{Name: "report", At: p2.ID},
		Payload: &Tree{Node: tree, At: p1.ID},
	})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if d := docRoot(t, p2, "report"); !xmltree.Equal(d, tree) {
		t.Errorf("installed tree wrong: %s", xmltree.Serialize(d))
	}
	// Name collision errors (d "not previously in use", §3.1).
	_, err = sys.Eval(p1.ID, &Send{
		Dest:    DestDoc{Name: "report", At: p2.ID},
		Payload: &Tree{Node: xmltree.E("other"), At: p1.ID},
	})
	if err == nil {
		t.Error("install over existing name should error")
	}
}

func TestQueryShippingDeploysService(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 100 return $i/name`)
	res, err := sys.Eval(p1.ID, &Send{
		Dest:    DestPeer{P: p2.ID},
		Payload: &QueryVal{Q: q, At: p1.ID, Name: "cheapNames"},
	})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if res.Deployed == nil || res.Deployed.Name != "cheapNames" || res.Deployed.Provider != p2.ID {
		t.Fatalf("Deployed = %v", res.Deployed)
	}
	svc, ok := p2.Service("cheapNames")
	if !ok || !svc.Declarative() {
		t.Fatal("service not deployed")
	}
	// Call the deployed service (definition (8) put it there; (6) runs it).
	callRes, err := sys.Eval(p1.ID, &ServiceCall{
		Provider: p2.ID, Service: "cheapNames",
	})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if len(callRes.Forest) != 2 {
		t.Errorf("deployed service returned %d results", len(callRes.Forest))
	}
}

func TestServiceCallWithParams(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	q := xquery.MustParse(`param $max;
		for $i in doc("catalog")/item where $i/price < $max return $i/name`)
	if err := p2.RegisterService(&service.Service{
		Name: "cheaper", Provider: p2.ID, Body: q,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Eval(p1.ID, &ServiceCall{
		Provider: p2.ID, Service: "cheaper",
		Params: []Expr{&Tree{Node: xmltree.E("max", "100"), At: p1.ID}},
	})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(res.Forest) != 2 {
		t.Errorf("results = %d", len(res.Forest))
	}
}

func TestServiceCallBuiltin(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	if err := p2.RegisterService(&service.Service{
		Name: "echo", Provider: p2.ID,
		Builtin: func(args [][]*xmltree.Node) ([]*xmltree.Node, error) {
			var out []*xmltree.Node
			for _, f := range args {
				out = append(out, f...)
			}
			return out, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Eval(p1.ID, &ServiceCall{
		Provider: p2.ID, Service: "echo",
		Params: []Expr{&Tree{Node: xmltree.E("ping"), At: p1.ID}},
	})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(res.Forest) != 1 || res.Forest[0].Label != "ping" {
		t.Errorf("echo result wrong: %v", res.Forest)
	}
}

func TestServiceCallWithForwardList(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	p3 := sys.MustAddPeer("p3")
	if err := p3.InstallDocument("inbox", xmltree.E("inbox")); err != nil {
		t.Fatal(err)
	}
	inbox := docRoot(t, p3, "inbox").ID

	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 100 return $i/name`)
	if err := p2.RegisterService(&service.Service{Name: "cheap", Provider: p2.ID, Body: q}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Eval(p1.ID, &ServiceCall{
		Provider: p2.ID, Service: "cheap",
		Forward: []peer.NodeRef{{Peer: p3.ID, Node: inbox}},
	})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	// Results went to p3, not back to p1 (rule (15) remark).
	if len(res.Forest) != 0 {
		t.Errorf("forwarded call returned %d local results", len(res.Forest))
	}
	now := docRoot(t, p3, "inbox")
	if got := len(now.ChildElementsByLabel("name")); got != 2 {
		t.Errorf("inbox received %d names, want 2: %s", got, xmltree.Serialize(now))
	}
	// No p2→p1 payload: traffic flows p1→p2 (request) and p2→p3 (data).
	st := sys.Net.Stats()
	if st.PerLink["p2"]["p3"].Messages == 0 {
		t.Error("no provider→target traffic recorded")
	}
}

func TestEvalAtDelegation(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 100 return $i/name`)
	// Rule (14): delegate the whole evaluation to p2; only the (small)
	// result ships back.
	res, err := sys.Eval(p1.ID, &EvalAt{At: p2.ID, E: &Query{Q: q, At: p2.ID}})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(res.Forest) != 2 {
		t.Errorf("results = %d", len(res.Forest))
	}
	st := sys.Net.Stats()
	if st.Messages != 2 {
		t.Errorf("messages = %d, want 2", st.Messages)
	}
	// Delegated plan ships far fewer bytes than fetching the document.
	sys2, p1b, p2b := twoPeerSystem(t)
	_ = p2b
	qNaive := xquery.MustParse(`param $in; for $i in $in/item where $i/price < 100 return $i/name`)
	_, err = sys2.Eval(p1b.ID, &Query{Q: qNaive, At: p1b.ID, Args: []Expr{&Doc{Name: "catalog", At: "p2"}}})
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	naiveBytes := sys2.Net.Stats().Bytes
	delegatedBytes := st.Bytes
	if delegatedBytes >= naiveBytes {
		t.Errorf("delegation should ship fewer bytes: %d vs naive %d", delegatedBytes, naiveBytes)
	}
}

func TestEvalTreeWithEmbeddedSC(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 20 return $i/name`)
	if err := p2.RegisterService(&service.Service{Name: "bargains", Provider: p2.ID, Body: q}); err != nil {
		t.Fatal(err)
	}
	// A tree with an embedded service call: evaluating it activates
	// the call and splices results in place of the sc element.
	doc := xmltree.MustParse(
		`<page><title>Bargains</title><sc provider="p2" service="bargains"/></page>`)
	res, err := sys.Eval(p1.ID, &Tree{Node: doc, At: p1.ID})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(res.Forest) != 1 {
		t.Fatalf("forest = %d", len(res.Forest))
	}
	page := res.Forest[0]
	if page.FirstChildElement("title") == nil {
		t.Error("title lost")
	}
	if got := len(page.ChildElementsByLabel("name")); got != 1 {
		t.Errorf("activated results = %d, want 1 (lamp): %s", got, xmltree.Serialize(page))
	}
	if page.FirstChildElement("sc") != nil {
		t.Error("sc element not consumed")
	}
}

func TestGenericDocResolution(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	p3 := sys.MustAddPeer("p3")
	if err := p3.InstallDocument("catalog-copy", xmltree.MustParse(catalogXML)); err != nil {
		t.Fatal(err)
	}
	sys.Generics.RegisterDoc("catalog", gendoc.DocReplica{Doc: "catalog", At: p2.ID})
	sys.Generics.RegisterDoc("catalog", gendoc.DocReplica{Doc: "catalog-copy", At: p3.ID})

	res, err := sys.Eval(p1.ID, &Doc{Name: "catalog", At: AnyPeer})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(res.Forest) != 1 || len(res.Forest[0].FindAll("item")) != 3 {
		t.Error("generic doc result wrong")
	}
	// First strategy picks p2.
	if st := sys.Net.Stats(); st.PerLink["p2"]["p1"].Messages == 0 {
		t.Error("expected traffic from p2 (First strategy)")
	}
	// Missing class errors.
	if _, err := sys.Eval(p1.ID, &Doc{Name: "nope", At: AnyPeer}); err == nil {
		t.Error("unknown class should error")
	}
}

func TestGenericServiceResolution(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	q := xquery.MustParse(`doc("catalog")/item/name`)
	if err := p2.RegisterService(&service.Service{Name: "names", Provider: p2.ID, Body: q}); err != nil {
		t.Fatal(err)
	}
	sys.Generics.RegisterService("names", service.Ref{Provider: p2.ID, Name: "names"})
	res, err := sys.Eval(p1.ID, &ServiceCall{Provider: AnyPeer, Service: "names"})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(res.Forest) != 3 {
		t.Errorf("results = %d", len(res.Forest))
	}
}

func TestExprXMLRoundTrip(t *testing.T) {
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 100 return $i/name`)
	exprs := []Expr{
		&Tree{Node: xmltree.MustParse(`<a><b>x</b></a>`), At: "p1"},
		&Doc{Name: "catalog", At: "p2"},
		&Doc{Name: "catalog", At: AnyPeer},
		&Query{Q: q, At: "p1", Args: []Expr{&Doc{Name: "catalog", At: "p2"}}},
		&QueryVal{Q: q, At: "p1", Name: "svc1"},
		&Send{Dest: DestPeer{P: "p2"}, Payload: &Tree{Node: xmltree.E("x"), At: "p1"}},
		&Send{Dest: DestDoc{Name: "d", At: "p3"}, Payload: &Doc{Name: "src", At: "p1"}},
		&Send{Dest: DestNodes{Refs: []peer.NodeRef{{Peer: "p2", Node: 5}, {Peer: "p3", Node: 9}}},
			Payload: &Tree{Node: xmltree.E("y"), At: "p1"}},
		&ServiceCall{Provider: "p2", Service: "s1",
			Params:  []Expr{&Tree{Node: xmltree.E("param", "v"), At: "p1"}},
			Forward: []peer.NodeRef{{Peer: "p3", Node: 7}}},
		&EvalAt{At: "p2", E: &Query{Q: q, At: "p2"}},
	}
	for _, e := range exprs {
		xmlForm := ToXML(e)
		back, err := ParseExpr(xmlForm)
		if err != nil {
			t.Errorf("ParseExpr(%s): %v", e.String(), err)
			continue
		}
		// Round-trip again: the two XML forms must be structurally equal.
		xml2 := ToXML(back)
		if !xmltree.Equal(xmlForm, xml2) {
			t.Errorf("round trip changed %s:\n%s\nvs\n%s", e.String(),
				xmltree.Serialize(xmlForm), xmltree.Serialize(xml2))
		}
	}
}

func TestParseExprErrors(t *testing.T) {
	bad := []string{
		`<x:unknown/>`,
		`<x:doc at="p"/>`,
		`<x:tree at="p"/>`,
		`<x:query at="p"/>`,
		`<x:send><x:dest/></x:send>`,
		`<sc provider="p"/>`,
		`<x:eval at="p"/>`,
		`<x:query at="p"><x:text>nonsense ! query</x:text></x:query>`,
	}
	for _, src := range bad {
		n, err := xmltree.Parse(src)
		if err != nil {
			t.Fatalf("fixture parse: %v", err)
		}
		if _, err := ParseExpr(n); err == nil {
			t.Errorf("ParseExpr(%s) succeeded, want error", src)
		}
	}
}

func TestComputeFactorSlowsPeer(t *testing.T) {
	sys, _, p2 := twoPeerSystem(t)
	q := xquery.MustParse(`for $i in doc("catalog")/item return $i`)
	r1, err := sys.Eval(p2.ID, &Query{Q: q, At: p2.ID})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetComputeFactor(p2.ID, 10)
	r2, err := sys.Eval(p2.ID, &Query{Q: q, At: p2.ID})
	if err != nil {
		t.Fatal(err)
	}
	if r2.VT <= r1.VT {
		t.Errorf("slowdown not applied: %v vs %v", r2.VT, r1.VT)
	}
}

func TestUnknownPeerAndService(t *testing.T) {
	sys, p1, _ := twoPeerSystem(t)
	if _, err := sys.Eval("ghost", &Doc{Name: "d", At: "ghost"}); err == nil {
		t.Error("unknown eval peer should error")
	}
	if _, err := sys.Eval(p1.ID, &ServiceCall{Provider: "p2", Service: "ghost"}); err == nil {
		t.Error("unknown service should error")
	}
	if _, err := sys.Eval(p1.ID, &Doc{Name: "d", At: "ghost"}); err == nil {
		t.Error("unknown remote peer should error")
	}
}

func TestContinuousServiceStreams(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	defer sys.Close()
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 100 return <hit>{$i/name/text()}</hit>`)
	if err := p2.RegisterService(&service.Service{
		Name: "watchCheap", Provider: p2.ID, Body: q, Continuous: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := p1.InstallDocument("results", xmltree.E("results")); err != nil {
		t.Fatal(err)
	}
	results := docRoot(t, p1, "results").ID

	res, err := sys.Eval(p1.ID, &ServiceCall{
		Provider: p2.ID, Service: "watchCheap",
		Forward: []peer.NodeRef{{Peer: p1.ID, Node: results}},
	})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	_ = res
	// Initial batch was forwarded: 2 hits.
	if got := len(docRoot(t, p1, "results").ChildElementsByLabel("hit")); got != 2 {
		t.Fatalf("initial hits = %d, want 2", got)
	}
	// The catalog evolves: a new cheap item appears.
	cat := docRoot(t, p2, "catalog").ID
	if err := p2.AddChild(cat, xmltree.MustParse(
		`<item id="4"><name>stool</name><price>9</price></item>`)); err != nil {
		t.Fatal(err)
	}
	// The new hit is shipped exactly once: by the step the pump asks
	// for, or by the background wake if that got there first. Once the
	// pump returns it has landed either way.
	n, err := sys.PumpSubscriptions()
	if err != nil {
		t.Fatalf("pump: %v", err)
	}
	if n > 1 {
		t.Errorf("pumped %d new results, want at most 1", n)
	}
	now := docRoot(t, p1, "results")
	if got := len(now.ChildElementsByLabel("hit")); got != 3 {
		t.Errorf("hits after update = %d, want 3: %s", got, xmltree.Serialize(now))
	}
	// An expensive item does not produce a delta.
	if err := p2.AddChild(cat, xmltree.MustParse(
		`<item id="5"><name>sofa</name><price>900</price></item>`)); err != nil {
		t.Fatal(err)
	}
	n, err = sys.PumpSubscriptions()
	if err != nil {
		t.Fatalf("pump2: %v", err)
	}
	if n != 0 {
		t.Errorf("pumped %d, want 0", n)
	}
}

func TestDownPeerSurfacesError(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	sys.Net.SetDown(p2.ID, true)
	if _, err := sys.Eval(p1.ID, &Doc{Name: "catalog", At: p2.ID}); err == nil {
		t.Error("eval against down peer should error")
	}
	sys.Net.SetDown(p2.ID, false)
	if _, err := sys.Eval(p1.ID, &Doc{Name: "catalog", At: p2.ID}); err != nil {
		t.Errorf("eval after recovery: %v", err)
	}
}

func TestWalkAndClone(t *testing.T) {
	q := xquery.MustParse(`doc("d")/x`)
	e := &EvalAt{At: "p2", E: &Send{
		Dest: DestPeer{P: "p3"},
		Payload: &Query{Q: q, At: "p1", Args: []Expr{
			&Doc{Name: "d", At: "p1"},
			&Tree{Node: xmltree.E("t"), At: "p1"},
		}},
	}}
	count := 0
	Walk(e, func(Expr) bool { count++; return true })
	if count != 5 {
		t.Errorf("Walk visited %d, want 5", count)
	}
	c := Clone(e).(*EvalAt)
	if c == e || c.E == e.E {
		t.Error("Clone did not copy")
	}
	if c.String() != e.String() {
		t.Errorf("clone differs: %s vs %s", c.String(), e.String())
	}
	// Mutating the clone's tree must not affect the original.
	cq := c.E.(*Send).Payload.(*Query)
	cq.Args[1].(*Tree).Node.Label = "changed"
	oq := e.E.(*Send).Payload.(*Query)
	if oq.Args[1].(*Tree).Node.Label != "t" {
		t.Error("clone shares tree structure")
	}
}

func TestTracing(t *testing.T) {
	sys, p1, p2 := twoPeerSystem(t)
	q := xquery.MustParse(`doc("catalog")/item/name`)
	e := &EvalAt{At: p2.ID, E: &Query{Q: q, At: p2.ID}}
	tr := obs.NewTrace("t")
	if _, err := sys.EvalContext(obs.WithTrace(context.Background(), tr), p1.ID, e); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) == 0 || spans[0].Phase != "delegate" || spans[0].Name != e.E.String() {
		t.Errorf("spans = %+v, want a delegate span named %s first", spans, e.E.String())
	}
}
