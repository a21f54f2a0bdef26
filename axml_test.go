// Integration tests exercising the public facade end to end: the
// scenarios a downstream user of the library starts from.
package axml_test

import (
	"strings"
	"testing"

	axml "axml"
	"axml/internal/axmldoc"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	sys := axml.NewLocalSystem()
	client := sys.MustAddPeer("client")
	store := sys.MustAddPeer("store")

	if err := store.InstallDocument("catalog", axml.MustParseXML(
		`<catalog><item><name>chair</name><price>30</price></item>
		 <item><name>desk</name><price>120</price></item></catalog>`)); err != nil {
		t.Fatal(err)
	}
	q := axml.MustParseQuery(
		`for $i in doc("catalog")/item where $i/price < 100 return <hit>{$i/name/text()}</hit>`)
	res, err := sys.Eval(client.ID, &axml.Query{Q: q, At: client.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Forest) != 1 || res.Forest[0].TextContent() != "chair" {
		t.Errorf("facade query result wrong: %v", res.Forest)
	}
	if st := sys.Net.Stats(); st.Messages == 0 {
		t.Error("remote document fetch should be visible in stats")
	}
}

func TestFacadeOptimizeEndToEnd(t *testing.T) {
	build := func() *axml.System {
		sys := axml.NewLocalSystem()
		sys.MustAddPeer("client")
		data := sys.MustAddPeer("data")
		items := axml.MustParseXML(`<catalog/>`)
		for i := 0; i < 100; i++ {
			items.AppendChild(axml.MustParseXML(
				`<item><name>thing</name><price>` + priceFor(i) + `</price></item>`))
		}
		if err := data.InstallDocument("catalog", items); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	q := axml.MustParseQuery(
		`for $i in doc("catalog")/item where $i/price < 5 return $i/name`)
	e := &axml.Query{Q: q, At: "client"}

	naiveSys := build()
	nRes, err := naiveSys.Eval("client", e)
	if err != nil {
		t.Fatal(err)
	}
	optSys := build()
	plan, _, err := axml.Optimize(optSys, "client", e, axml.OptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oRes, err := optSys.Eval("client", plan.Expr)
	if err != nil {
		t.Fatal(err)
	}
	if len(nRes.Forest) != len(oRes.Forest) {
		t.Fatalf("plans disagree: %d vs %d", len(nRes.Forest), len(oRes.Forest))
	}
	if optSys.Net.Stats().Bytes >= naiveSys.Net.Stats().Bytes {
		t.Errorf("optimized plan should move fewer bytes: %d vs %d",
			optSys.Net.Stats().Bytes, naiveSys.Net.Stats().Bytes)
	}
}

func priceFor(i int) string {
	if i%20 == 0 {
		return "3"
	}
	return "500"
}

func TestFacadeExpressionXMLRoundTrip(t *testing.T) {
	q := axml.MustParseQuery(`doc("d")/x`)
	e := &axml.EvalAt{At: "p2", E: &axml.Query{Q: q, At: "p2"}}
	xmlForm := axml.ExprToXML(e)
	back, err := axml.ParseExpr(xmlForm)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != e.String() {
		t.Errorf("round trip changed: %s vs %s", back.String(), e.String())
	}
}

func TestFacadeSchemaValidation(t *testing.T) {
	s, err := axml.ParseSchema("root a\na := b*\nb := #PCDATA")
	if err != nil {
		t.Fatal(err)
	}
	good := axml.MustParseXML(`<a><b>x</b></a>`)
	if !s.Valid(good) {
		t.Error("valid doc rejected")
	}
	bad := axml.MustParseXML(`<a><c/></a>`)
	if s.Valid(bad) {
		t.Error("invalid doc accepted")
	}
}

func TestFacadeActivationViaAxmldoc(t *testing.T) {
	sys := axml.NewLocalSystem()
	host := sys.MustAddPeer("host")
	data := sys.MustAddPeer("data")
	if err := data.InstallDocument("log", axml.MustParseXML(`<log><e>one</e></log>`)); err != nil {
		t.Fatal(err)
	}
	q := axml.MustParseQuery(`for $e in doc("log")/e return $e`)
	if err := data.RegisterService(&axml.Service{Name: "tail", Provider: "data", Body: q}); err != nil {
		t.Fatal(err)
	}
	page := axml.MustParseXML(`<view><sc provider="data" service="tail"/></view>`)
	if err := host.InstallDocument("view", page); err != nil {
		t.Fatal(err)
	}
	act := axmldoc.New(sys.System, host)
	if _, err := act.ActivateDocument(t.Context(), "view"); err != nil {
		t.Fatal(err)
	}
	// Activation publishes a new copy-on-write epoch; serialize the
	// newest root rather than the pre-activation pointer.
	h := host.Snapshot()
	d, err := h.Root("view")
	h.Release()
	if err != nil {
		t.Fatal(err)
	}
	out := axml.SerializeXML(d)
	if !strings.Contains(out, "<e>one</e>") {
		t.Errorf("activation result missing: %s", out)
	}
}

func TestFacadeMaterializedViews(t *testing.T) {
	sys := axml.NewLocalSystem()
	defer sys.Close()
	sys.MustAddPeer("client")
	data := sys.MustAddPeer("data")
	cat := axml.MustParseXML(`<catalog/>`)
	for i := 0; i < 50; i++ {
		cat.AppendChild(axml.MustParseXML(
			`<item><name>thing</name><price>` + priceFor(i) + `</price></item>`))
	}
	if err := data.InstallDocument("catalog", cat); err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineView("cheap",
		`for $i in doc("catalog")/item where $i/price < 100 return $i`, "client"); err != nil {
		t.Fatal(err)
	}
	infos := sys.Views()
	if len(infos) != 1 || infos[0].Name != "cheap" {
		t.Fatalf("Views() = %+v", infos)
	}
	q := axml.MustParseQuery(
		`for $i in doc("catalog")/item where $i/price < 5 return $i/name`)
	e := &axml.Query{Q: q, At: "client"}
	plan, _, err := axml.Optimize(sys, "client", e, axml.OptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Expr.String(), "view:cheap") {
		t.Errorf("facade Optimize ignored the view: %s", plan)
	}
	res, err := sys.Eval("client", plan.Expr)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := sys.Eval("client", e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Forest) != len(naive.Forest) {
		t.Errorf("view plan answer differs: %d vs %d", len(res.Forest), len(naive.Forest))
	}
	// Maintenance: a base update must reach the view.
	h := data.Snapshot()
	doc, err := h.Root("catalog")
	h.Release()
	if err != nil {
		t.Fatal(err)
	}
	if err := data.AddChild(doc.ID,
		axml.MustParseXML(`<item><name>late</name><price>2</price></item>`)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RefreshViews(); err != nil {
		t.Fatal(err)
	}
	res2, err := sys.Eval("client", plan.Expr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Forest) != len(res.Forest)+1 {
		t.Errorf("refreshed view should surface the new item: %d vs %d",
			len(res2.Forest), len(res.Forest))
	}
	if err := sys.DropView("cheap"); err != nil {
		t.Fatal(err)
	}
	if len(sys.Views()) != 0 {
		t.Error("view survived DropView")
	}
}

func TestFacadeDefaultRules(t *testing.T) {
	var names []string
	for _, r := range axml.DefaultRules() {
		names = append(names, r.Name())
	}
	want := []string{
		"pushSelection(11)", "pushOverCall(16)", "scRelocate(15)",
		"delegate(10/14)", "shareTransfer(13)", "routeIntro(12)",
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("default rules %v, want %v", names, want)
	}
}
