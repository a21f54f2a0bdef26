package core

import (
	"context"
	"strings"
	"testing"

	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// relaySystem: src/hub/dst with a slow direct link and fast hops.
func relaySystem(t *testing.T) *System {
	t.Helper()
	net := netsim.New()
	sys := NewSystem(net)
	sys.MustAddPeer("src")
	sys.MustAddPeer("hub")
	sys.MustAddPeer("dst")
	net.SetLinkBoth("src", "dst", netsim.Link{LatencyMs: 100, BytesPerMs: 10})
	net.SetLinkBoth("src", "hub", netsim.Link{LatencyMs: 2, BytesPerMs: 1000})
	net.SetLinkBoth("hub", "dst", netsim.Link{LatencyMs: 2, BytesPerMs: 1000})
	return sys
}

func TestRelayDelivers(t *testing.T) {
	sys := relaySystem(t)
	payload := xmltree.E("blob", xmltree.T(strings.Repeat("x", 1000)))
	res, err := sys.Eval("src", &Relay{
		Via: []netsim.PeerID{"hub"}, Dest: DestPeer{P: "dst"},
		Payload: &Tree{Node: payload, At: "src"},
	})
	if err != nil {
		t.Fatalf("relay: %v", err)
	}
	if len(res.Anchors) != 1 || res.Anchors[0].Peer != "dst" {
		t.Fatalf("anchors = %v", res.Anchors)
	}
	dst, _ := sys.Peer("dst")
	landed, ok := dst.NodeByID(res.Anchors[0].Node)
	if !ok || len(landed.Children) != 1 || !xmltree.Equal(landed.Children[0], payload) {
		t.Errorf("payload did not arrive intact")
	}
	// Both hops accounted: src→hub and hub→dst.
	st := sys.Net.Stats()
	if st.PerLink["src"]["hub"].Messages == 0 || st.PerLink["hub"]["dst"].Messages == 0 {
		t.Errorf("hop traffic missing: %+v", st.PerLink)
	}
	if st.PerLink["src"]["dst"].Messages != 0 {
		t.Errorf("direct link should be unused")
	}
}

func TestRelayBeatsDirectOnSlowLink(t *testing.T) {
	payload := xmltree.E("blob", xmltree.T(strings.Repeat("x", 2000)))

	direct := relaySystem(t)
	dRes, err := direct.Eval("src", &Send{
		Dest: DestPeer{P: "dst"}, Payload: &Tree{Node: xmltree.DeepCopy(payload), At: "src"}})
	if err != nil {
		t.Fatal(err)
	}
	relayed := relaySystem(t)
	rRes, err := relayed.Eval("src", &Relay{
		Via: []netsim.PeerID{"hub"}, Dest: DestPeer{P: "dst"},
		Payload: &Tree{Node: xmltree.DeepCopy(payload), At: "src"}})
	if err != nil {
		t.Fatal(err)
	}
	if rRes.VT >= dRes.VT {
		t.Errorf("relay VT %v should beat direct %v here", rRes.VT, dRes.VT)
	}
}

func TestRelayToNodes(t *testing.T) {
	sys := relaySystem(t)
	dst, _ := sys.Peer("dst")
	if err := dst.InstallDocument("inbox", xmltree.E("inbox")); err != nil {
		t.Fatal(err)
	}
	inbox := docRoot(t, dst, "inbox").ID
	_, err := sys.Eval("src", &Relay{
		Via: []netsim.PeerID{"hub"}, Dest: DestNodes{Refs: []peer.NodeRef{{Peer: "dst", Node: inbox}}},
		Payload: &Tree{Node: xmltree.E("msg", "hello"), At: "src"},
	})
	if err != nil {
		t.Fatalf("relay to nodes: %v", err)
	}
	if docRoot(t, dst, "inbox").FirstChildElement("msg") == nil {
		t.Error("message did not land in inbox")
	}
}

func TestRelayErrors(t *testing.T) {
	sys := relaySystem(t)
	// Foreign payload is undefined (§3.2).
	_, err := sys.Eval("src", &Relay{
		Via: []netsim.PeerID{"hub"}, Dest: DestPeer{P: "dst"},
		Payload: &Tree{Node: xmltree.E("x"), At: "dst"},
	})
	if err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Errorf("foreign payload relay: %v", err)
	}
	// Unknown via peer.
	_, err = sys.Eval("src", &Relay{
		Via: []netsim.PeerID{"ghost"}, Dest: DestPeer{P: "dst"},
		Payload: &Tree{Node: xmltree.E("x"), At: "src"},
	})
	if err == nil {
		t.Error("unknown via peer should error")
	}
	// DestDoc unsupported for relays.
	_, err = sys.Eval("src", &Relay{
		Via: []netsim.PeerID{"hub"}, Dest: DestDoc{Name: "d", At: "dst"},
		Payload: &Tree{Node: xmltree.E("x"), At: "src"},
	})
	if err == nil {
		t.Error("relay to DestDoc should error")
	}
}

func TestRelayXMLRoundTrip(t *testing.T) {
	e := &Relay{
		Via:     []netsim.PeerID{"hub", "h2"},
		Dest:    DestPeer{P: "dst"},
		Payload: &Tree{Node: xmltree.E("x"), At: "src"},
	}
	back, err := ParseExpr(ToXML(e))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := back.(*Relay)
	if !ok || len(r.Via) != 2 || r.Via[0] != "hub" || r.Via[1] != "h2" {
		t.Errorf("round trip = %s", back.String())
	}
	// Node-list destination form.
	e2 := &Relay{
		Via:     []netsim.PeerID{"hub"},
		Dest:    DestNodes{Refs: []peer.NodeRef{{Peer: "dst", Node: 4}}},
		Payload: &Doc{Name: "d", At: "src"},
	}
	back2, err := ParseExpr(ToXML(e2))
	if err != nil {
		t.Fatal(err)
	}
	if back2.String() != e2.String() {
		t.Errorf("round trip changed: %s vs %s", back2.String(), e2.String())
	}
}

func TestShareArgsHalvesTraffic(t *testing.T) {
	run := func(share bool) (int64, int) {
		sys := relaySystem(t)
		hub, _ := sys.Peer("hub")
		if err := hub.InstallDocument("cat", xmltree.MustParse(
			`<cat><item><p>1</p></item><item><p>2</p></item></cat>`)); err != nil {
			t.Fatal(err)
		}
		q := xquery.MustParse(`param $a, $b; <c>{count($a/item) + count($b/item)}</c>`)
		res, err := sys.Eval("src", &Query{Q: q, At: "src", ShareArgs: share, Args: []Expr{
			&Doc{Name: "cat", At: "hub"},
			&Doc{Name: "cat", At: "hub"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Forest) != 1 || res.Forest[0].TextContent() != "4" {
			t.Fatalf("result = %v", res.Forest)
		}
		return sys.Net.Stats().Bytes, len(res.Forest)
	}
	unshared, _ := run(false)
	shared, _ := run(true)
	if shared >= unshared {
		t.Errorf("sharing did not reduce traffic: %d vs %d", shared, unshared)
	}
	// ShareArgs survives serialization.
	q := xquery.MustParse(`param $a; $a`)
	e := &Query{Q: q, At: "p", ShareArgs: true, Args: []Expr{&Doc{Name: "d", At: "p"}}}
	back, err := ParseExpr(ToXML(e))
	if err != nil {
		t.Fatal(err)
	}
	if !back.(*Query).ShareArgs {
		t.Error("ShareArgs lost in round trip")
	}
}

func TestEvalFromThreadsVT(t *testing.T) {
	sys := relaySystem(t)
	e := &Send{Dest: DestPeer{P: "hub"}, Payload: &Tree{Node: xmltree.E("x"), At: "src"}}
	r0, err := sys.EvalFrom("src", Clone(e), 0)
	if err != nil {
		t.Fatal(err)
	}
	r100, err := sys.EvalFrom("src", Clone(e), 100)
	if err != nil {
		t.Fatal(err)
	}
	if r100.VT <= r0.VT || r100.VT < 100 {
		t.Errorf("EvalFrom offset not applied: %v vs %v", r100.VT, r0.VT)
	}
}

func TestShippedDataDoesNotActivateSC(t *testing.T) {
	// Data in transit containing sc elements must arrive verbatim —
	// activation is an explicit decision, not a shipping side effect.
	sys := relaySystem(t)
	dst, _ := sys.Peer("dst")
	if err := dst.InstallDocument("inbox", xmltree.E("inbox")); err != nil {
		t.Fatal(err)
	}
	inbox := docRoot(t, dst, "inbox").ID
	intensional := xmltree.MustParse(`<doc><sc provider="hub" service="nope"/></doc>`)
	// Ship via the engine's data path (shipData → x:raw carrier).
	if _, err := sys.shipData(context.Background(), "src", peer.NodeRef{Peer: "dst", Node: inbox},
		[]*xmltree.Node{intensional}, 0); err != nil {
		t.Fatalf("shipData: %v", err)
	}
	now := docRoot(t, dst, "inbox")
	if landed := now.FirstChildElement("doc"); landed == nil || landed.FirstChildElement("sc") == nil {
		t.Errorf("sc element lost or activated in transit: %s", xmltree.Serialize(now))
	}
}
