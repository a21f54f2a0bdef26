package wire

import (
	"context"
	"net"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/placement"
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/xmltree"
)

// TestPlacementsVerb: PLACEMENTS reports the placement map and, once
// the controller has acted, its decisions.
func TestPlacementsVerb(t *testing.T) {
	sys := core.NewSystem(netsim.New())
	p := sys.MustAddPeer("store")
	if err := p.InstallDocument("catalog", xmltree.MustParse(
		`<catalog><item><name>chair</name><price>30</price></item>
		 <item><name>desk</name><price>120</price></item></catalog>`)); err != nil {
		t.Fatal(err)
	}
	views := view.NewManager(sys)
	t.Cleanup(views.Close)
	if err := views.Define("cheap",
		`for $i in doc("catalog")/item where $i/price < 100 return $i`, "store"); err != nil {
		t.Fatal(err)
	}
	// A 1-byte budget guarantees the first Step evicts; no Step runs
	// before the first PLACEMENTS check, so the map shows up intact.
	ctrl := placement.New(views, placement.Config{DefaultBudget: 1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Peer: p, Views: views, Placements: ctrl,
		SessionOptions: []session.LocalOption{session.WithTrafficSink(ctrl.Observer())}}
	go srv.Serve(l) //nolint:errcheck // closed by test cleanup
	t.Cleanup(func() { l.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	lines, err := c.Placements(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "cheap@store") {
		t.Fatalf("placements = %v", lines)
	}
	// Freshness: the copy reflects a base epoch and is not behind it.
	if strings.Contains(lines[0], "epoch 0,") || !strings.HasSuffix(lines[0], "behind 0") {
		t.Errorf("placement line carries no freshness: %q", lines[0])
	}
	catalog, _ := p.Document("catalog")
	if err := p.AddChild(catalog.Root.ID, xmltree.MustParse(`<item><price>1</price></item>`)); err != nil {
		t.Fatal(err)
	}
	if lines, err = c.Placements(context.Background()); err != nil || !strings.HasSuffix(lines[0], "behind 1") {
		t.Errorf("after one base commit: %v, %v; want behind 1", lines, err)
	}

	// Queries feed the observer through the server session; the budget
	// squeeze then produces an eviction decision the verb reports.
	if _, err := c.QueryAll(`for $i in doc("catalog")/item where $i/price < 50 return $i/name`); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	lines, err = c.Placements(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	foundEvict := false
	for _, l := range lines {
		if strings.Contains(l, "evict") && strings.Contains(l, "cheap") {
			foundEvict = true
		}
	}
	if !foundEvict {
		t.Fatalf("expected an eviction decision, got %v", lines)
	}
}
