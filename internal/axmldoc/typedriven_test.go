package axmldoc

import (
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/service"
	"axml/internal/xmltree"
	"axml/internal/xtype"
)

// pageSchema requires a title and at least one offer.
const pageSchemaSrc = `
root page
page := (title, offer+)
title := #PCDATA
offer := #PCDATA
`

func typeSetup(t *testing.T) (*core.System, *Activator) {
	t.Helper()
	sys := core.NewSystem(netsim.New())
	host := sys.MustAddPeer("host")
	data := sys.MustAddPeer("data")
	// One service produces offers, another produces unrelated noise.
	if err := data.RegisterService(&service.Service{
		Name: "offers", Provider: "data",
		Builtin: func([][]*xmltree.Node) ([]*xmltree.Node, error) {
			return []*xmltree.Node{
				xmltree.E("offer", "chair"),
				xmltree.E("offer", "lamp"),
			}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := data.RegisterService(&service.Service{
		Name: "noise", Provider: "data",
		Builtin: func([][]*xmltree.Node) ([]*xmltree.Node, error) {
			return []*xmltree.Node{xmltree.E("noise", "zzz")}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return sys, New(sys, host)
}

func TestActivateToTypeReachesConformance(t *testing.T) {
	_, act := typeSetup(t)
	schema := xtype.MustParseSchema(pageSchemaSrc)
	doc := xmltree.MustParse(
		`<page><title>Deals</title><sc provider="data" service="offers"/></page>`)
	if err := act.Peer.InstallDocument("page", doc); err != nil {
		t.Fatal(err)
	}
	n, ok, err := act.ActivateToType(t.Context(), "page", schema, 5)
	if err != nil {
		t.Fatalf("ActivateToType: %v", err)
	}
	if !ok {
		t.Fatal("conformance not reached")
	}
	if n != 1 {
		t.Errorf("activated %d calls, want 1", n)
	}
	if got := len(currentRoot(t, act.Peer, "page").ChildElementsByLabel("offer")); got != 2 {
		t.Errorf("offers = %d", got)
	}
}

func TestActivateToTypeIsGoalDirected(t *testing.T) {
	_, act := typeSetup(t)
	schema := xtype.MustParseSchema(pageSchemaSrc)
	// The document is ALREADY valid (an offer is materialized); its
	// pending call must stay dormant — the point of type-driven
	// activation.
	doc := xmltree.MustParse(
		`<page><title>Deals</title><offer>sofa</offer><sc provider="data" service="offers"/></page>`)
	if err := act.Peer.InstallDocument("page", doc); err != nil {
		t.Fatal(err)
	}
	n, ok, err := act.ActivateToType(t.Context(), "page", schema, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("already-valid doc reported non-conforming")
	}
	if n != 0 {
		t.Errorf("activated %d calls on an already-valid document", n)
	}
	pending, _ := act.PendingCalls("page")
	if len(pending) != 1 {
		t.Errorf("dormant call lost: pending = %d", len(pending))
	}
}

func TestActivateToTypeUnreachable(t *testing.T) {
	_, act := typeSetup(t)
	schema := xtype.MustParseSchema(pageSchemaSrc)
	// Only the noise service is referenced: no activation can produce
	// the required offer.
	doc := xmltree.MustParse(
		`<page><title>Deals</title><sc provider="data" service="noise"/></page>`)
	if err := act.Peer.InstallDocument("page", doc); err != nil {
		t.Fatal(err)
	}
	_, ok, err := act.ActivateToType(t.Context(), "page", schema, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("unreachable type reported as conforming")
	}
}

func TestActivateToTypeMissingDoc(t *testing.T) {
	_, act := typeSetup(t)
	schema := xtype.MustParseSchema(pageSchemaSrc)
	if _, _, err := act.ActivateToType(t.Context(), "ghost", schema, 3); err == nil {
		t.Error("missing document should error")
	}
}
