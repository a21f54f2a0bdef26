package wire

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/obs"
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/xmltree"
)

// startObsServer runs a wire server whose peer lives in a two-peer
// system: "store" (served) and "data" (remote, holds "remote"), so
// queries over the remote document delegate across the simulated
// network and traced queries produce multi-hop span trees. The
// simulated network comes back too, for a test to take "data" down.
func startObsServer(t *testing.T) (*Client, *Server, *netsim.Network) {
	t.Helper()
	sys := core.NewSystem(netsim.New())
	p := sys.MustAddPeer("store")
	data := sys.MustAddPeer("data")
	if err := data.InstallDocument("remote", xmltree.MustParse(
		`<catalog><item><name>chair</name><price>30</price></item>
		 <item><name>desk</name><price>120</price></item>
		 <item><name>lamp</name><price>15</price></item></catalog>`)); err != nil {
		t.Fatal(err)
	}
	views := view.NewManager(sys)
	t.Cleanup(views.Close)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Peer: p, Views: views}
	go srv.Serve(l) //nolint:errcheck // closed by test cleanup
	t.Cleanup(func() { l.Close() })

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, srv, sys.Net
}

// TestStatsVerbMatchesServerCounters: the STATS snapshot that crossed
// the wire carries the session's plan-cache counters and the gauges of
// the server's own registry.
func TestStatsVerbMatchesServerCounters(t *testing.T) {
	c, srv, _ := startObsServer(t)
	const q = `for $i in doc("remote")/item where $i/price < 100 return $i/name`
	for i := 0; i < 3; i++ {
		out, err := c.QueryAll(q)
		if err != nil {
			t.Fatalf("QueryAll: %v", err)
		}
		if len(out) != 2 {
			t.Fatalf("rows = %d, want 2", len(out))
		}
	}

	snap, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if hits, misses := snap.Counters["session.plan_cache.hits"], snap.Counters["session.plan_cache.misses"]; hits != 2 || misses != 1 {
		t.Errorf("STATS plan cache: %d hits / %d misses, want 2 / 1", hits, misses)
	}
	gauges := srv.MetricsRegistry().Snapshot().Gauges
	for name, want := range map[string]int64{
		"wire.streams_started": 3,
		"wire.rows_streamed":   6,
		"wire.streams_aborted": 0,
	} {
		if got := gauges[name]; got != want {
			t.Errorf("registry gauge %s = %d, want %d", name, got, want)
		}
		if got, ok := snap.Gauges[name]; !ok || got != want {
			t.Errorf("STATS gauge %s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	if snap.Gauges["net.bytes_total"] <= 0 {
		t.Error("net.bytes_total missing from snapshot")
	}
}

// TestTraceVerbRoundTrip: a query sent with WithTraceID yields a
// fetchable span tree covering the whole remote pipeline — root,
// parse, plan, and the delegation hop to the data peer.
func TestTraceVerbRoundTrip(t *testing.T) {
	c, srv, _ := startObsServer(t)
	const q = `for $i in doc("remote")/item where $i/price < 100 return $i/name`
	rows, err := c.Query(context.Background(), q, session.WithTraceID("t-42"))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	forest, err := rows.Collect()
	if err != nil || len(forest) != 2 {
		t.Fatalf("forest=%d err=%v", len(forest), err)
	}

	spans, err := c.Trace(context.Background(), "t-42")
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	phases := map[string]int{}
	var root, delegate *obs.Span
	for i, sp := range spans {
		phases[sp.Phase]++
		switch sp.Phase {
		case "query":
			root = &spans[i]
		case "delegate":
			delegate = &spans[i]
		}
	}
	for _, want := range []string{"query", "parse", "plan"} {
		if phases[want] == 0 {
			t.Errorf("trace missing %q span: %v", want, phases)
		}
	}
	if root == nil || root.Rows != 2 {
		t.Errorf("root span rows wrong: %+v", root)
	}
	if delegate == nil {
		t.Fatalf("no delegation span — query did not cross to the data peer: %v", phases)
	}
	if delegate.From != "store" || delegate.To != "data" {
		t.Errorf("delegate link = %s→%s, want store→data", delegate.From, delegate.To)
	}
	// The per-hop bytes reconcile with the netsim per-link totals.
	st := srv.Views.System().Net.Stats()
	if got, want := delegate.BytesOut, st.PerLink["store"]["data"].Bytes; got != want {
		t.Errorf("delegate bytesOut %d != netsim store→data %d", got, want)
	}
	if got, want := delegate.BytesIn, st.PerLink["data"]["store"].Bytes; got != want {
		t.Errorf("delegate bytesIn %d != netsim data→store %d", got, want)
	}

	// Renderable: the tree drawing contains the hop.
	text := obs.Render(spans)
	if !strings.Contains(text, "delegate store→data") {
		t.Errorf("render missing hop:\n%s", text)
	}

	// Unknown trace IDs are a clean protocol error.
	if _, err := c.Trace(context.Background(), "nope"); err == nil {
		t.Error("TRACE of unknown id should error")
	}
}

// TestUntracedQueryRecordsNothing: without +trace the ring stays
// empty — tracing is strictly opt-in on the wire surface.
func TestUntracedQueryRecordsNothing(t *testing.T) {
	c, srv, _ := startObsServer(t)
	if _, err := c.QueryAll(`doc("remote")/item/name`); err != nil {
		t.Fatalf("QueryAll: %v", err)
	}
	if ids := srv.MetricsRegistry().TraceIDs(); len(ids) != 0 {
		t.Errorf("untraced query left traces: %v", ids)
	}
}

// TestServedPeerDownIsNotReplayed: a query that fails because a peer of
// the served system is down answers ErrPeerDown over a healthy
// connection. The client must not take that for a lost connection and
// send the query a second time.
func TestServedPeerDownIsNotReplayed(t *testing.T) {
	c, srv, net := startObsServer(t)
	net.SetDown("data", true)
	started := func() int64 { return srv.MetricsRegistry().Snapshot().Gauges["wire.streams_started"] }
	before := started()
	if _, err := c.Query(context.Background(), `doc("remote")/item/name`); !errors.Is(err, session.ErrPeerDown) {
		t.Fatalf("Query with data down = %v, want ErrPeerDown", err)
	}
	if n := started() - before; n != 1 {
		t.Errorf("the query started %d streams, want 1", n)
	}
}
