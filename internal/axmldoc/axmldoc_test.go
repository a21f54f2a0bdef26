package axmldoc

import (
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/service"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

const catalogXML = `<catalog>
  <item><name>chair</name><price>30</price></item>
  <item><name>desk</name><price>120</price></item>
  <item><name>lamp</name><price>15</price></item>
</catalog>`

func setup(t *testing.T) (*core.System, *Activator, *peer.Peer) {
	t.Helper()
	sys := core.NewSystem(netsim.New())
	host := sys.MustAddPeer("host")
	data := sys.MustAddPeer("data")
	if err := data.InstallDocument("catalog", xmltree.MustParse(catalogXML)); err != nil {
		t.Fatal(err)
	}
	cheap := xquery.MustParse(`for $i in doc("catalog")/item where $i/price < 100 return <offer>{$i/name/text()}</offer>`)
	if err := data.RegisterService(&service.Service{Name: "cheap", Provider: "data", Body: cheap}); err != nil {
		t.Fatal(err)
	}
	return sys, New(sys, host), host
}

// currentRoot fetches the newest epoch's root: activation publishes
// copy-on-write epochs, so a root pointer held across an activation is
// a frozen pre-activation snapshot.
func currentRoot(t *testing.T, p *peer.Peer, name string) *xmltree.Node {
	t.Helper()
	d, ok := p.Document(name)
	if !ok {
		t.Fatalf("document %q vanished", name)
	}
	return d.Root
}

func TestActivateInsertsSiblings(t *testing.T) {
	_, act, host := setup(t)
	doc := xmltree.MustParse(`<page><title>Offers</title><sc provider="data" service="cheap"/></page>`)
	if err := host.InstallDocument("page", doc); err != nil {
		t.Fatal(err)
	}
	pending, err := act.PendingCalls("page")
	if err != nil || len(pending) != 1 {
		t.Fatalf("pending = %v, %v", pending, err)
	}
	if err := act.ActivateNode(pending[0]); err != nil {
		t.Fatalf("activate: %v", err)
	}
	// Results land as siblings of the sc node, inside <page>.
	cur := currentRoot(t, host, "page")
	if got := len(cur.ChildElementsByLabel("offer")); got != 2 {
		t.Errorf("offers = %d, want 2: %s", got, xmltree.Serialize(cur))
	}
	// The sc stays, marked activated.
	sc := cur.FirstChildElement("sc")
	if sc == nil {
		t.Fatal("sc element removed")
	}
	if v, _ := sc.Attr("x:state"); v != "activated" {
		t.Errorf("state = %q", v)
	}
	// Second activation is an error.
	if err := act.ActivateNode(sc); err == nil {
		t.Error("re-activation should error")
	}
	// PendingCalls now empty.
	pending, _ = act.PendingCalls("page")
	if len(pending) != 0 {
		t.Errorf("pending after activation = %d", len(pending))
	}
}

func TestActivateLegacySyntax(t *testing.T) {
	_, act, host := setup(t)
	doc := xmltree.MustParse(`<page><sc><peer>data</peer><service>cheap</service></sc></page>`)
	if err := host.InstallDocument("page", doc); err != nil {
		t.Fatal(err)
	}
	pending, _ := act.PendingCalls("page")
	if err := act.ActivateNode(pending[0]); err != nil {
		t.Fatalf("activate legacy: %v", err)
	}
	if got := len(currentRoot(t, host, "page").ChildElementsByLabel("offer")); got != 2 {
		t.Errorf("offers = %d", got)
	}
}

func TestActivateWithParams(t *testing.T) {
	sys, act, host := setup(t)
	data, _ := sys.Peer("data")
	pq := xquery.MustParse(`param $max; for $i in doc("catalog")/item where $i/price < $max return <hit>{$i/name/text()}</hit>`)
	if err := data.RegisterService(&service.Service{Name: "below", Provider: "data", Body: pq}); err != nil {
		t.Fatal(err)
	}
	doc := xmltree.MustParse(`<page><sc provider="data" service="below"><param><max>20</max></param></sc></page>`)
	if err := host.InstallDocument("page", doc); err != nil {
		t.Fatal(err)
	}
	pending, _ := act.PendingCalls("page")
	if err := act.ActivateNode(pending[0]); err != nil {
		t.Fatalf("activate: %v", err)
	}
	cur := currentRoot(t, host, "page")
	hits := cur.ChildElementsByLabel("hit")
	if len(hits) != 1 || hits[0].TextContent() != "lamp" {
		t.Errorf("hits = %v: %s", len(hits), xmltree.Serialize(cur))
	}
}

func TestAfterOrdering(t *testing.T) {
	_, act, host := setup(t)
	doc := xmltree.MustParse(`<page>
		<sc id="first" provider="data" service="cheap"/>
		<sc id="second" after="first" provider="data" service="cheap"/>
	</page>`)
	if err := host.InstallDocument("page", doc); err != nil {
		t.Fatal(err)
	}
	pending, _ := act.PendingCalls("page")
	if len(pending) != 2 {
		t.Fatalf("pending = %d", len(pending))
	}
	// Activating the second first is refused.
	err := act.ActivateNode(pending[1])
	if _, ok := err.(*NotReadyError); !ok {
		t.Fatalf("want NotReadyError, got %v", err)
	}
	// ActivateDocument resolves the order automatically.
	n, err := act.ActivateDocument("page")
	if err != nil {
		t.Fatalf("ActivateDocument: %v", err)
	}
	if n != 2 {
		t.Errorf("activated %d, want 2", n)
	}
	if got := len(currentRoot(t, host, "page").ChildElementsByLabel("offer")); got != 4 {
		t.Errorf("offers = %d, want 4", got)
	}
}

func TestAfterUnknownDependency(t *testing.T) {
	_, act, host := setup(t)
	doc := xmltree.MustParse(`<page><sc after="ghost" provider="data" service="cheap"/></page>`)
	if err := host.InstallDocument("page", doc); err != nil {
		t.Fatal(err)
	}
	pending, _ := act.PendingCalls("page")
	if err := act.ActivateNode(pending[0]); err == nil ||
		!strings.Contains(err.Error(), "references no sc") {
		t.Errorf("unknown dependency: %v", err)
	}
}

func TestFixpointNestedCalls(t *testing.T) {
	sys, act, host := setup(t)
	data, _ := sys.Peer("data")
	// A service whose result embeds another service call.
	if err := data.RegisterService(&service.Service{
		Name: "indirect", Provider: "data",
		Builtin: func([][]*xmltree.Node) ([]*xmltree.Node, error) {
			return []*xmltree.Node{
				xmltree.MustParse(`<wrapped><sc provider="data" service="cheap"/></wrapped>`),
			}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	doc := xmltree.MustParse(`<page><sc provider="data" service="indirect"/></page>`)
	if err := host.InstallDocument("page", doc); err != nil {
		t.Fatal(err)
	}
	rounds, reached, err := act.Fixpoint("page", 5)
	if err != nil {
		t.Fatalf("fixpoint: %v", err)
	}
	if !reached || rounds < 2 {
		t.Errorf("rounds=%d reached=%v", rounds, reached)
	}
	cur := currentRoot(t, host, "page")
	wrapped := cur.FindAll("wrapped")
	if len(wrapped) != 1 {
		t.Fatalf("wrapped = %d", len(wrapped))
	}
	if got := len(wrapped[0].ChildElementsByLabel("offer")); got != 2 {
		t.Errorf("nested offers = %d: %s", got, xmltree.Serialize(cur))
	}
}

func TestFixpointBudget(t *testing.T) {
	sys, act, host := setup(t)
	data, _ := sys.Peer("data")
	// A service that reproduces a call to itself: no fixpoint.
	if err := data.RegisterService(&service.Service{
		Name: "loop", Provider: "data",
		Builtin: func([][]*xmltree.Node) ([]*xmltree.Node, error) {
			return []*xmltree.Node{
				xmltree.MustParse(`<again><sc provider="data" service="loop"/></again>`),
			}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	doc := xmltree.MustParse(`<page><sc provider="data" service="loop"/></page>`)
	if err := host.InstallDocument("page", doc); err != nil {
		t.Fatal(err)
	}
	rounds, reached, err := act.Fixpoint("page", 3)
	if err != nil {
		t.Fatalf("fixpoint: %v", err)
	}
	if reached {
		t.Error("divergent document reported as fixpoint")
	}
	if rounds != 3 {
		t.Errorf("rounds = %d, want 3 (budget)", rounds)
	}
}

func TestLazyQuery(t *testing.T) {
	_, act, host := setup(t)
	doc := xmltree.MustParse(`<page><sc provider="data" service="cheap"/></page>`)
	if err := host.InstallDocument("page", doc); err != nil {
		t.Fatal(err)
	}
	q := xquery.MustParse(`for $o in doc("page")/offer return $o`)
	out, err := act.LazyQuery("page", q, 5)
	if err != nil {
		t.Fatalf("LazyQuery: %v", err)
	}
	if len(out) != 2 {
		t.Errorf("lazy results = %d, want 2", len(out))
	}
}

// TestEagerAndLazyActivationAgree: a page of three calls, activated
// before the query (eager) or by the query that needs them (lazy),
// answers with the same rows.
func TestEagerAndLazyActivationAgree(t *testing.T) {
	const page = `<page><sc provider="data" service="cheap"/><sc provider="data" service="cheap"/><sc provider="data" service="cheap"/></page>`
	q := xquery.MustParse(`for $o in doc("page")/offer return $o`)
	answer := func(lazy bool) string {
		_, act, host := setup(t)
		if err := host.InstallDocument("page", xmltree.MustParse(page)); err != nil {
			t.Fatal(err)
		}
		var out []*xmltree.Node
		var err error
		if lazy {
			out, err = act.LazyQuery("page", q, 3)
		} else if _, err = act.ActivateDocument("page"); err == nil {
			out, err = host.RunQuery(q)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 6 {
			t.Errorf("lazy=%v: %d rows, want 3 calls × 2 offers", lazy, len(out))
		}
		var sb strings.Builder
		for _, n := range out {
			sb.WriteString(xmltree.Serialize(n))
		}
		return sb.String()
	}
	if eager, lazy := answer(false), answer(true); eager != lazy {
		t.Errorf("eager %s, lazy %s", eager, lazy)
	}
}

func TestEquivalent(t *testing.T) {
	_, act, _ := setup(t)
	// A materialized document vs an intensional one that expands to it.
	materialized := xmltree.MustParse(
		`<page><offer>chair</offer><offer>lamp</offer></page>`)
	intensional := xmltree.MustParse(
		`<page><sc provider="data" service="cheap"/></page>`)
	eq, reached, err := act.Equivalent(materialized, intensional, 5)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if !reached {
		t.Error("fixpoint not reached")
	}
	if !eq {
		t.Error("materialized and intensional documents should be ≡")
	}
	// A different materialization is not equivalent.
	other := xmltree.MustParse(`<page><offer>sofa</offer></page>`)
	eq, _, err = act.Equivalent(other, intensional, 5)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("different contents reported equivalent")
	}
}

func TestParseCallElementErrors(t *testing.T) {
	cases := []string{
		`<sc/>`,
		`<sc provider="p"/>`,
		`<sc provider="p" service="s"><param/></sc>`,
		`<sc provider="p" service="s"><forw ref="bogus"/></sc>`,
	}
	for _, src := range cases {
		n := xmltree.MustParse(src)
		if _, err := ParseCallElement(n, "host"); err == nil {
			t.Errorf("ParseCallElement(%s) succeeded, want error", src)
		}
	}
}

func TestActivateNodeValidation(t *testing.T) {
	_, act, _ := setup(t)
	if err := act.ActivateNode(nil); err == nil {
		t.Error("nil node should error")
	}
	if err := act.ActivateNode(xmltree.E("notsc")); err == nil {
		t.Error("non-sc should error")
	}
	orphan := xmltree.MustParse(`<sc provider="data" service="cheap"/>`)
	if err := act.ActivateNode(orphan); err == nil {
		t.Error("parentless sc should error")
	}
}
