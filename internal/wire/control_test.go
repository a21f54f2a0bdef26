package wire

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/placement"
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/xmltree"
)

// stubControl records every control verb it receives and answers with
// canned data — the wire codec test double.
type stubControl struct {
	mu       sync.Mutex
	hellos   []MemberInfo
	byes     []string
	migrates []string
	drops    []string
	accepts  []string
	accepted *xmltree.Node

	export    placement.Export
	decisions []placement.Decision

	demandStarted chan struct{}
	demandRelease chan struct{}
}

func (s *stubControl) Hello(info MemberInfo) ([]MemberInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hellos = append(s.hellos, info)
	return []MemberInfo{info, {ID: "other", Addr: "addr2", Docs: []string{"d"}}}, nil
}

func (s *stubControl) Bye(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byes = append(s.byes, id)
	return nil
}

func (s *stubControl) Demand(context.Context) (placement.Export, error) {
	if s.demandStarted != nil {
		close(s.demandStarted)
		<-s.demandRelease
	}
	return s.export, nil
}

func (s *stubControl) MigrateView(_ context.Context, name, targetID, targetAddr string, keep bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	verb := "migrate"
	if keep {
		verb = "replicate"
	}
	s.migrates = append(s.migrates, verb+" "+name+" "+targetID+" "+targetAddr)
	return nil
}

func (s *stubControl) DropView(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drops = append(s.drops, name)
	return nil
}

func (s *stubControl) AcceptView(_ context.Context, name, query, origin string, root *xmltree.Node) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.accepts = append(s.accepts, name+" "+query+" "+origin)
	s.accepted = root
	return nil
}

func (s *stubControl) Step(context.Context) ([]placement.Decision, error) {
	return s.decisions, nil
}

func (s *stubControl) ClusterPlacements() ([]view.PlacementInfo, []placement.Decision) {
	return nil, nil
}

// startControlServer serves a peer with the stub attached in both
// control roles.
func startControlServer(t *testing.T, ctl *stubControl) *Client {
	t.Helper()
	p := peer.New("store")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Peer: p, Coordinator: ctl, Member: ctl}
	go srv.Serve(l) //nolint:errcheck // closed by test cleanup
	t.Cleanup(func() { l.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestControlVerbsRoundTrip: every federation verb survives the wire —
// arguments arrive intact at the Control, replies parse back.
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

	members, err := c.Hello(ctx, MemberInfo{ID: "a", Addr: "addr1",
		Docs: []string{"catalog"}, Views: []string{"cheap"}})
	if err != nil {
		t.Fatalf("Hello: %v", err)
	}
	if len(members) != 2 || members[1].ID != "other" || members[1].Docs[0] != "d" {
		t.Errorf("membership = %+v", members)
	}
	if len(stub.hellos) != 1 || !reflect.DeepEqual(stub.hellos[0], MemberInfo{
		ID: "a", Addr: "addr1", Docs: []string{"catalog"}, Views: []string{"cheap"}}) {
		t.Errorf("hello received = %+v", stub.hellos)
	}

	if err := c.Bye(ctx, "a"); err != nil || len(stub.byes) != 1 || stub.byes[0] != "a" {
		t.Errorf("Bye: %v %v", err, stub.byes)
	}

	export, err := c.Demand(ctx)
	if err != nil {
		t.Fatalf("Demand: %v", err)
	}
	if !reflect.DeepEqual(export, stub.export) {
		t.Errorf("demand export round trip:\n got %+v\nwant %+v", export, stub.export)
	}

	if err := c.MigrateView(ctx, "cheap", "b", "addr2", false); err != nil {
		t.Fatalf("MigrateView: %v", err)
	}
	if err := c.MigrateView(ctx, "cheap", "b", "addr2", true); err != nil {
		t.Fatalf("ReplicateView: %v", err)
	}
	if len(stub.migrates) != 2 || stub.migrates[0] != "migrate cheap b addr2" ||
		stub.migrates[1] != "replicate cheap b addr2" {
		t.Errorf("migrates = %v", stub.migrates)
	}

	if err := c.DropViewPlacement(ctx, "cheap"); err != nil || len(stub.drops) != 1 {
		t.Errorf("DropViewPlacement: %v %v", err, stub.drops)
	}

	tree := xmltree.E("catalog", xmltree.E("item", "chair"))
	if err := c.AcceptView(ctx, "cheap", `doc("catalog")/item`, "a", tree); err != nil {
		t.Fatalf("AcceptView: %v", err)
	}
	if len(stub.accepts) != 1 || stub.accepts[0] != `cheap doc("catalog")/item a` {
		t.Errorf("accepts = %v", stub.accepts)
	}
	if stub.accepted == nil || xmltree.Serialize(stub.accepted) != xmltree.Serialize(tree) {
		t.Errorf("accepted tree = %v", stub.accepted)
	}

	decisions, err := c.Step(ctx)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if !reflect.DeepEqual(decisions, stub.decisions) {
		t.Errorf("decisions round trip:\n got %+v\nwant %+v", decisions, stub.decisions)
	}
}

// TestControlVerbsWithoutControl: a peer outside any federation rejects
// the control verbs with a clear error.
func TestControlVerbsWithoutControl(t *testing.T) {
	c, _, _ := startViewServer(t)
	for verb, call := range map[string]func() error{
		"HELLO":  func() error { _, err := c.Hello(context.Background(), MemberInfo{ID: "x", Addr: "y"}); return err },
		"DEMAND": func() error { _, err := c.Demand(context.Background()); return err },
		"STEP":   func() error { _, err := c.Step(context.Background()); return err },
		"MIGRATE": func() error {
			return c.MigrateView(context.Background(), "v", "b", "addr", false)
		},
	} {
		if err := call(); err == nil || !strings.Contains(err.Error(), "not part of a federation") {
			t.Errorf("%s without Control: %v", verb, err)
		}
	}
}

// TestControlVerbsOfTheOtherRole: a member refuses the coordinator's
// verbs and a coordinator the member's, each with an x:error naming the
// role, while its own verbs keep working.
func TestControlVerbsOfTheOtherRole(t *testing.T) {
	serve := func(srv *Server) *Client {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l) //nolint:errcheck // closed by test cleanup
		t.Cleanup(func() { l.Close() })
		c, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	ctx := context.Background()

	member := serve(&Server{Peer: peer.New("m"), Member: &stubControl{}})
	if _, err := member.Step(ctx); err == nil || !strings.Contains(err.Error(), "coordinator verb") {
		t.Errorf("STEP at a member: %v", err)
	}
	if _, err := member.Hello(ctx, MemberInfo{ID: "x", Addr: "y"}); err == nil || !strings.Contains(err.Error(), "coordinator verb") {
		t.Errorf("HELLO at a member: %v", err)
	}
	if _, err := member.Demand(ctx); err != nil {
		t.Errorf("DEMAND at a member: %v", err)
	}

	coord := serve(&Server{Peer: peer.New("c"), Coordinator: &stubControl{}})
	if _, err := coord.Demand(ctx); err == nil || !strings.Contains(err.Error(), "member verb") {
		t.Errorf("DEMAND at a coordinator: %v", err)
	}
	if err := coord.DropViewPlacement(ctx, "v"); err == nil || !strings.Contains(err.Error(), "member verb") {
		t.Errorf("DROPVIEW at a coordinator: %v", err)
	}
	if _, err := coord.Step(ctx); err != nil {
		t.Errorf("STEP at a coordinator: %v", err)
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
// instead of surfacing ErrPeerDown; a mutating call does not.
func TestClientReconnectsAfterRestart(t *testing.T) {
	r := newRestartableServer(t)
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
	p := peer.New("store")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Peer: p, Coordinator: stub, Member: stub}
	go srv.Serve(l) //nolint:errcheck // closed by test
	defer l.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	demandErr := make(chan error, 1)
	go func() {
		export, err := c.Demand(context.Background())
		if err == nil && export.Member != "a" {
			err = errors.New("wrong export")
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
	p := peer.New("store")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Peer: p, Coordinator: stub, Member: stub}
	go srv.Serve(l) //nolint:errcheck // closed by test
	defer l.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	go func() {
		_, _ = c.Demand(context.Background())
	}()
	<-stub.demandStarted
	l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown past deadline = %v, want DeadlineExceeded", err)
	}
}
