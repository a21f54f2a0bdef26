package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/placement"
	"axml/internal/service"
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/xmltree"
)

// The federation's control actions, each a builtin service of the role
// that provides it (internal/cluster).
var (
	coordinatorServices = []string{"x:hello", "x:bye", "x:step"}
	memberServices      = []string{"x:demand", "x:migrate", "x:drop-view", "x:accept-view"}
	controlServices     = append(append([]string(nil), coordinatorServices...), memberServices...)
)

// stubControl provides the control services as builtins that record
// every call's parameter forest and answer canned replies — the CALL
// codec test double.
type stubControl struct {
	mu    sync.Mutex
	calls []string // "<service> <serialized parameters>"

	export    placement.Export
	decisions []placement.Decision

	demandStarted chan struct{}
	demandRelease chan struct{}
}

// register adds the named control services to p. Like the real
// builtins, x:demand and x:step take no parameter and the others
// exactly one.
func (s *stubControl) register(t testing.TB, p *peer.Peer, names []string) {
	t.Helper()
	for _, name := range names {
		if err := p.RegisterService(&service.Service{Name: name, Provider: p.ID, Builtin: s.serve(name)}); err != nil {
			t.Fatal(err)
		}
	}
}

func (s *stubControl) serve(name string) service.BuiltinFunc {
	return func(args [][]*xmltree.Node) ([]*xmltree.Node, error) {
		want := 1
		if name == "x:demand" || name == "x:step" {
			want = 0
		}
		if len(args) != want {
			return nil, fmt.Errorf("%w: %s takes %d parameter(s)", session.ErrBadQuery, name, want)
		}
		if name == "x:demand" && s.demandStarted != nil {
			close(s.demandStarted)
			<-s.demandRelease
		}
		var sb strings.Builder
		for _, arg := range args {
			for _, n := range arg {
				sb.WriteString(xmltree.Serialize(n))
			}
		}
		s.mu.Lock()
		s.calls = append(s.calls, name+" "+sb.String())
		s.mu.Unlock()
		switch name {
		case "x:hello":
			members := xmltree.E("x:members", args[0][0],
				xmltree.E("x:member", xmltree.A("id", "other"), xmltree.A("addr", "addr2"),
					xmltree.E("doc", xmltree.A("name", "d"))))
			return []*xmltree.Node{members}, nil
		case "x:demand":
			return []*xmltree.Node{s.export.ToXML()}, nil
		case "x:step":
			reply := xmltree.E("x:decisions")
			for _, d := range s.decisions {
				reply.AppendChild(d.ToXML())
			}
			return []*xmltree.Node{reply}, nil
		}
		return nil, nil
	}
}

// startControlServer serves a peer with the stub's control services
// registered.
func startControlServer(t *testing.T, ctl *stubControl) *Client {
	t.Helper()
	p, views := newStore(t, nil)
	ctl.register(t, p, controlServices)
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
	return c
}

// TestControlVerbsRoundTrip: every control service survives CALL —
// parameters arrive intact at the builtin, replies parse back.
func TestControlVerbsRoundTrip(t *testing.T) {
	stub := &stubControl{
		export: placement.Export{
			Member: "a",
			Views: []placement.ViewExport{{
				Name: "cheap", Query: `doc("catalog")/item`, Mode: "adopted",
				Origin: "b", BaseDoc: "catalog", Base: true, Bytes: 99, Trees: 3,
			}},
			Loads: []placement.LoadExport{{
				Doc: "catalog", Weight: 2.5,
				Shapes: []placement.ShapeExport{{Key: `doc("catalog")/item`, Weight: 2.5, Sel: 0.25}},
			}},
		},
		decisions: []placement.Decision{{
			Round: 3, View: "cheap", Action: "migrate", From: "a", To: "b",
			GainPerRound: 1.5, OneTime: 0.5, Reason: "demand moved",
		}},
	}
	c := startControlServer(t, stub)
	ctx := context.Background()
	call := func(name string, params ...*xmltree.Node) *xmltree.Node {
		t.Helper()
		out, err := c.Call(ctx, name, params...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) == 0 {
			return nil
		}
		return out[0]
	}

	hello := xmltree.MustParse(`<x:member id="a" addr="addr1"><doc name="catalog"/><view name="cheap"/></x:member>`)
	members := call("x:hello", hello).ChildElementsByLabel("x:member")
	if len(members) != 2 || xmltree.Serialize(members[0]) != xmltree.Serialize(hello) {
		t.Errorf("membership = %v", members)
	}
	if id, _ := members[1].Attr("id"); id != "other" || len(members[1].ChildElements()) != 1 {
		t.Errorf("other member = %s", xmltree.Serialize(members[1]))
	}

	if out := call("x:bye", xmltree.E("x:member", xmltree.A("id", "a"))); out != nil {
		t.Errorf("x:bye replied %s", xmltree.Serialize(out))
	}

	export, err := placement.ExportFromXML(call("x:demand"))
	if err != nil {
		t.Fatalf("x:demand: %v", err)
	}
	if !reflect.DeepEqual(export, stub.export) {
		t.Errorf("demand export round trip:\n got %+v\nwant %+v", export, stub.export)
	}

	call("x:migrate", xmltree.MustParse(`<x:move view="cheap" to="b" addr="addr2" keep="false"/>`))
	call("x:migrate", xmltree.MustParse(`<x:move view="cheap" to="b" addr="addr2" keep="true"/>`))
	call("x:drop-view", xmltree.E("x:view", xmltree.A("name", "cheap")))

	tree := xmltree.E("catalog", xmltree.E("item", "chair"))
	ship := xmltree.E("x:ship", xmltree.A("name", "cheap"), xmltree.A("query", `doc("catalog")/item`),
		xmltree.A("origin", "a"), tree)
	call("x:accept-view", ship)

	decisions := call("x:step").ChildElementsByLabel("decision")
	if len(decisions) != 1 || xmltree.Serialize(decisions[0]) != xmltree.Serialize(stub.decisions[0].ToXML()) {
		t.Errorf("decisions round trip: got %v, want %s", decisions, xmltree.Serialize(stub.decisions[0].ToXML()))
	}

	want := []string{
		"x:hello " + xmltree.Serialize(hello),
		`x:bye <x:member id="a"/>`,
		"x:demand ",
		`x:migrate <x:move view="cheap" to="b" addr="addr2" keep="false"/>`,
		`x:migrate <x:move view="cheap" to="b" addr="addr2" keep="true"/>`,
		`x:drop-view <x:view name="cheap"/>`,
		"x:accept-view " + xmltree.Serialize(ship),
		"x:step ",
	}
	if !reflect.DeepEqual(stub.calls, want) {
		t.Errorf("calls received:\n got %q\nwant %q", stub.calls, want)
	}
}

// TestControlVerbsWithoutControl: a peer outside any federation
// provides no control service, so CALL of each answers the typed
// no-such-service error.
func TestControlVerbsWithoutControl(t *testing.T) {
	c, _, _ := startViewServer(t)
	for _, name := range controlServices {
		if _, err := c.Call(context.Background(), name); !errors.Is(err, core.ErrNoSuchService) {
			t.Errorf("%s without control services: %v, want ErrNoSuchService", name, err)
		}
	}
}

// TestControlVerbsOfTheOtherRole: a peer holding one role's control
// services answers those and refuses the other role's with the typed
// no-such-service error.
func TestControlVerbsOfTheOtherRole(t *testing.T) {
	serve := func(id string, names []string) *Client {
		sys := core.NewSystem(netsim.New())
		p := sys.MustAddPeer(netsim.PeerID(id))
		(&stubControl{}).register(t, p, names)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go (&Server{Peer: p, Views: view.NewManager(sys)}).Serve(l) //nolint:errcheck // closed by test cleanup
		t.Cleanup(func() { l.Close() })
		c, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	ctx := context.Background()
	for _, tc := range []struct {
		role       string
		own, other []string
		served     string
	}{
		{"member", memberServices, coordinatorServices, "x:demand"},
		{"coordinator", coordinatorServices, memberServices, "x:step"},
	} {
		c := serve(tc.role, tc.own)
		for _, name := range tc.other {
			if _, err := c.Call(ctx, name); !errors.Is(err, core.ErrNoSuchService) {
				t.Errorf("%s asked for %s: %v, want ErrNoSuchService", tc.role, name, err)
			}
		}
		if out, err := c.Call(ctx, tc.served); err != nil || len(out) != 1 {
			t.Errorf("%s asked for its own %s: %v, %d trees", tc.role, tc.served, err, len(out))
		}
	}
}

// TestServedVerbs: the server speaks exactly six verbs. The eight
// federation control verbs that used to sit beside them are services
// now, EXEC, INSTALL and DEFVIEW are statements on QUERYX, and PREPARE
// is the first run of a query; as verbs they are unknown commands.
func TestServedVerbs(t *testing.T) {
	sys := core.NewSystem(netsim.New())
	views := view.NewManager(sys)
	t.Cleanup(views.Close)
	srv := &Server{Peer: sys.MustAddPeer("store"), Views: views}
	reply := func(line string) string {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		srv.dispatch(line, w)
		w.Flush()
		return buf.String()
	}
	for _, verb := range []string{"QUERYX", "CALL", "LIST", "PLACEMENTS", "STATS", "TRACE"} {
		if got := reply(verb + " x"); strings.Contains(got, "unknown command") {
			t.Errorf("%s is not served: %s", verb, got)
		}
	}
	for _, verb := range []string{"HELLO", "BYE", "DEMAND", "MIGRATE", "REPLICATE",
		"DROPVIEW", "ACCEPTVIEW", "STEP", "EXEC", "INSTALL", "DEFVIEW", "PREPARE"} {
		if got := reply(verb + " x"); !strings.Contains(got, "unknown command") {
			t.Errorf("retired verb %s answered %s, want unknown command", verb, got)
		}
	}
}

// restartableServer runs a wire server whose process can "die" and come
// back on the same port.
type restartableServer struct {
	t    *testing.T
	addr string
	srv  *Server
	l    net.Listener
}

func newRestartableServer(t *testing.T) *restartableServer {
	t.Helper()
	sys := core.NewSystem(netsim.New())
	p := sys.MustAddPeer("store")
	if err := p.InstallDocument("catalog", xmltree.MustParse(
		`<catalog><item><name>chair</name></item></catalog>`)); err != nil {
		t.Fatal(err)
	}
	views := view.NewManager(sys)
	t.Cleanup(views.Close)
	r := &restartableServer{t: t, srv: &Server{Peer: p, Views: views}}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.addr = l.Addr().String()
	r.l = l
	go r.srv.Serve(l) //nolint:errcheck // closed by test
	t.Cleanup(func() { r.l.Close() })
	return r
}

// restart simulates a peer restart: kill the listener and every open
// connection, then listen again on the same port.
func (r *restartableServer) restart() {
	r.t.Helper()
	r.l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	_ = r.srv.Shutdown(ctx)
	cancel()
	var l net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, err = net.Listen("tcp", r.addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("relisten on %s: %v", r.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	r.l = l
	r.srv = &Server{Peer: r.srv.Peer, Views: r.srv.Views}
	go r.srv.Serve(l) //nolint:errcheck // closed by test
}

// TestClientReconnectsAfterRestart: an idempotent call on a pooled
// client whose peer restarted transparently redials and retries once
// instead of surfacing ErrPeerDown; a mutating call does not, and
// neither does a service call — a control action such as a demand
// export must not run twice because its reply was lost.
func TestClientReconnectsAfterRestart(t *testing.T) {
	r := newRestartableServer(t)
	var ran atomic.Int32
	if err := r.srv.Peer.RegisterService(&service.Service{Name: "count", Provider: r.srv.Peer.ID,
		Builtin: func([][]*xmltree.Node) ([]*xmltree.Node, error) { ran.Add(1); return nil, nil }}); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.List(context.Background()); err != nil {
		t.Fatalf("first List: %v", err)
	}

	r.restart()
	if _, _, err := c.List(context.Background()); err != nil {
		t.Fatalf("List after restart must transparently reconnect: %v", err)
	}

	// A mutating verb never auto-retries: the first attempt on the
	// stale socket surfaces ErrPeerDown (the caller must decide whether
	// re-sending is safe).
	r.restart()
	if _, err := c.Exec(context.Background(), `delete doc("catalog")/item[name="ghost"]`); !errors.Is(err, session.ErrPeerDown) {
		t.Fatalf("Exec on stale socket = %v, want ErrPeerDown", err)
	}
	// The connection heals on the next idempotent call.
	if _, _, err := c.List(context.Background()); err != nil {
		t.Fatalf("List after failed Exec: %v", err)
	}
	r.restart()
	if _, err := c.Call(context.Background(), "count"); !errors.Is(err, session.ErrPeerDown) {
		t.Fatalf("Call on stale socket = %v, want ErrPeerDown", err)
	}
	// The stale socket never reached the restarted server, and nothing
	// replayed the call on a fresh one.
	if n := ran.Load(); n != 0 {
		t.Fatalf("service ran %d times after a lost call, want 0", n)
	}
	if _, _, err := c.List(context.Background()); err != nil {
		t.Fatalf("List after failed Call: %v", err)
	}

	// Streaming queries retry the open too.
	r.restart()
	out, err := c.QueryAll(`doc("catalog")/item/name`)
	if err != nil {
		t.Fatalf("Query after restart: %v", err)
	}
	if len(out) == 0 {
		t.Error("query after reconnect returned nothing")
	}
}

// TestClientDoesNotReplayStatements: the statement, not the verb,
// decides replay. An update or a declaration sent with Query on a stale
// socket surfaces ErrPeerDown and is not sent again over a fresh one;
// a query on a stale socket is.
func TestClientDoesNotReplayStatements(t *testing.T) {
	r := newRestartableServer(t)
	c, err := Dial(r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, src := range []string{`delete doc("catalog")/item`, `declare document "extra" as <extra/>`} {
		if _, _, err := c.List(ctx); err != nil {
			t.Fatal(err)
		}
		r.restart()
		if _, err := c.Query(ctx, src); !errors.Is(err, session.ErrPeerDown) {
			t.Fatalf("Query(%q) on a stale socket = %v, want ErrPeerDown", src, err)
		}
	}
	if n := len(docRoot(t, r.srv.Peer, "catalog").Children); n != 1 || r.srv.Peer.HasDocument("extra") {
		t.Fatalf("a statement was replayed: %d items left, extra installed %v", n, r.srv.Peer.HasDocument("extra"))
	}
	r.restart()
	if out, err := c.QueryAll(`doc("catalog")/item/name`); err != nil || len(out) != 1 {
		t.Fatalf("query after restart = %v, %v; want it replayed", out, err)
	}
}

// TestClientReconnectStopsAtDeadPeer: when the peer stays down the
// retry fails and ErrPeerDown reaches the caller.
func TestClientReconnectStopsAtDeadPeer(t *testing.T) {
	r := newRestartableServer(t)
	c, err := Dial(r.addr, WithDialTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r.l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	_ = r.srv.Shutdown(ctx)
	cancel()
	if _, _, err := c.List(context.Background()); !errors.Is(err, session.ErrPeerDown) {
		t.Fatalf("List against dead peer = %v, want ErrPeerDown", err)
	}
}

// TestServerShutdownDrains: Shutdown lets the in-flight request finish
// (its reply reaches the client) before closing connections, and cuts
// them when the drain deadline passes.
func TestServerShutdownDrains(t *testing.T) {
	stub := &stubControl{
		export:        placement.Export{Member: "a"},
		demandStarted: make(chan struct{}),
		demandRelease: make(chan struct{}),
	}
	p, views := newStore(t, nil)
	stub.register(t, p, controlServices)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Peer: p, Views: views}
	go srv.Serve(l) //nolint:errcheck // closed by test
	defer l.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	demandErr := make(chan error, 1)
	go func() {
		out, err := c.Call(context.Background(), "x:demand")
		if err == nil {
			var export placement.Export
			if export, err = placement.ExportFromXML(out[0]); err == nil && export.Member != "a" {
				err = errors.New("wrong export")
			}
		}
		demandErr <- err
	}()
	<-stub.demandStarted

	l.Close()
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned %v before the in-flight request finished", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(stub.demandRelease)
	if err := <-demandErr; err != nil {
		t.Fatalf("in-flight DEMAND during drain: %v", err)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestServerShutdownDeadline: a request that outlives the drain window
// gets its connection cut and Shutdown reports the deadline.
func TestServerShutdownDeadline(t *testing.T) {
	stub := &stubControl{
		demandStarted: make(chan struct{}),
		demandRelease: make(chan struct{}),
	}
	defer close(stub.demandRelease)
	p, views := newStore(t, nil)
	stub.register(t, p, controlServices)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Peer: p, Views: views}
	go srv.Serve(l) //nolint:errcheck // closed by test
	defer l.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	go func() {
		_, _ = c.Call(context.Background(), "x:demand")
	}()
	<-stub.demandStarted
	l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown past deadline = %v, want DeadlineExceeded", err)
	}
}
