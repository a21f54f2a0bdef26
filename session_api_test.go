// Facade tests of the unified session API: the same Session interface
// over a local system and over a wire connection, typed errors, plan
// caching, and context cancellation — the scenarios a downstream user
// of the library starts from.
package axml_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	axml "axml"
	"axml/internal/wire"
)

func sessionSystem(t *testing.T) *axml.System {
	t.Helper()
	sys := axml.NewLocalSystem()
	t.Cleanup(sys.Close)
	sys.MustAddPeer("client")
	data := sys.MustAddPeer("data")
	cat := axml.MustParseXML(`<catalog/>`)
	for i := 0; i < 60; i++ {
		cat.AppendChild(axml.MustParseXML(
			`<item><name>thing</name><price>` + priceFor(i) + `</price></item>`))
	}
	if err := data.InstallDocument("catalog", cat); err != nil {
		t.Fatal(err)
	}
	return sys
}

const sessionQ = `for $i in doc("catalog")/item where $i/price < 5 return $i/name`

func TestSessionQueryLocal(t *testing.T) {
	sys := sessionSystem(t)
	sess := sys.MustSession("client")
	defer sess.Close()
	rows, err := sess.Query(context.Background(), sessionQ)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for node, err := range rows.All() {
		if err != nil {
			t.Fatal(err)
		}
		if node.TextContent() != "thing" {
			t.Errorf("row = %s", axml.SerializeXML(node))
		}
		n++
	}
	if n != 3 {
		t.Errorf("rows = %d, want 3", n)
	}
}

// TestSessionExpiredContext is the acceptance criterion: an expired
// context returns ErrCanceled without completing remote ships.
func TestSessionExpiredContext(t *testing.T) {
	sys := sessionSystem(t)
	sess := sys.MustSession("client")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sess.Query(ctx, sessionQ)
	if !errors.Is(err, axml.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if st := sys.Net.Stats(); st.Messages != 0 {
		t.Errorf("expired context still moved %d message(s)", st.Messages)
	}
}

func TestSessionPlanCacheWithViews(t *testing.T) {
	sys := sessionSystem(t)
	sess, err := sys.LocalSession("client")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		rows, err := sess.Query(ctx, sessionQ)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rows.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	cache := func() map[string]int64 { return sys.Metrics().Snapshot().Counters }
	if c := cache(); c["session.plan_cache.hits"] != 2 || c["session.plan_cache.misses"] != 1 {
		t.Fatalf("plan cache counters = %v", c)
	}
	// DefineView invalidates; the re-planned query reads the view.
	if err := sys.DefineView("cheap",
		`for $i in doc("catalog")/item where $i/price < 100 return $i`, "client"); err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(ctx, sessionQ)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Collect(); err != nil {
		t.Fatal(err)
	}
	if c := cache(); c["session.plan_cache.invalidations"] != 1 {
		t.Errorf("DefineView did not invalidate: %v", c)
	}
}

// TestSessionOverWire drives the identical interface through Dial
// against a served peer.
func TestSessionOverWire(t *testing.T) {
	sys := sessionSystem(t)
	data, _ := sys.Peer("data")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv := &wire.Server{Peer: data, Views: sys.ViewManager()}
	go srv.Serve(l) //nolint:errcheck // closed by test cleanup

	sess, err := axml.Dial(l.Addr().String(), axml.WithDialTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	ctx := context.Background()
	stmt, err := sess.Prepare(ctx, sessionQ)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rows, err := stmt.Query(ctx)
		if err != nil {
			t.Fatal(err)
		}
		forest, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(forest) != 3 {
			t.Errorf("run %d: %d rows", i, len(forest))
		}
	}
	// Typed errors cross the wire.
	_, err = sess.Query(ctx, `for $i in doc("ghost")/x return $i`)
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, axml.ErrNoSuchDoc) {
		t.Errorf("wire error not typed: %v", err)
	}
	// Exec runs updates remotely.
	if n, err := sess.Exec(ctx, `delete doc("catalog")/item[price > 100]`); err != nil || n == 0 {
		t.Errorf("Exec = %d, %v", n, err)
	}
}
