package cluster

import (
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
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/placement"
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/wire"
	"axml/internal/xmltree"
)

// catalogXML builds a small catalog document.
func catalogXML(items int) string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < items; i++ {
		fmt.Fprintf(&b, "<item><name>item%d</name><price>%d</price></item>", i, (i*37)%1000)
	}
	b.WriteString("</catalog>")
	return b.String()
}

// node is one in-process deployment: its own core.System, view manager,
// member agent and wire server on a real TCP listener — the full
// federation stack minus the OS process boundary.
type node struct {
	id    string
	sys   *core.System
	views *view.Manager
	obsv  *placement.Observer
	mem   *Member
	addr  string
}

func startMemberNode(t *testing.T, id string, docs map[string]string, coordAddr string) *node {
	t.Helper()
	nw := netsim.New()
	netsim.Uniform(nw, []netsim.PeerID{netsim.PeerID(id)}, netsim.DefaultLink)
	sys := core.NewSystem(nw)
	p := sys.MustAddPeer(netsim.PeerID(id))
	for name, content := range docs {
		if err := p.InstallDocument(name, xmltree.MustParse(content)); err != nil {
			t.Fatal(err)
		}
	}
	views := view.NewManager(sys)
	obsv := placement.NewObserver()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Peer: p, Views: views,
		SessionOptions: []session.LocalOption{session.WithTrafficSink(obsv)}}
	mem, err := NewMember(MemberConfig{
		ID:                id,
		Advertise:         l.Addr().String(),
		Coordinator:       coordAddr,
		SelfPeer:          netsim.PeerID(id),
		HeartbeatInterval: 50 * time.Millisecond,
		RPCTimeout:        2 * time.Second,
	}, sys, views, obsv)
	if err != nil {
		t.Fatal(err)
	}
	srv.Member = mem
	srv.Forward = mem
	go srv.Serve(l) //nolint:errcheck // closed by test cleanup
	mem.Start()
	t.Cleanup(func() {
		mem.Close()
		l.Close()
		views.Close()
		sys.Close()
	})
	return &node{id: id, sys: sys, views: views, obsv: obsv, mem: mem, addr: l.Addr().String()}
}

func startCoordinatorNode(t *testing.T, cfg CoordinatorConfig) (*Coordinator, string) {
	t.Helper()
	coord := NewCoordinator(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Peer: peer.New("coord"), Coordinator: coord}
	go srv.Serve(l) //nolint:errcheck // closed by test cleanup
	t.Cleanup(func() { l.Close() })
	return coord, l.Addr().String()
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func dialT(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestFederationMigratesToConsumer is the in-process end-to-end round:
// member A hosts the catalog and a full-copy view, member B generates
// all the demand (its queries forward to A), one coordinator round
// observes that and ships the copy to B, after which B serves locally.
func TestFederationMigratesToConsumer(t *testing.T) {
	coord, coordAddr := startCoordinatorNode(t, CoordinatorConfig{})
	a := startMemberNode(t, "a", map[string]string{"catalog": catalogXML(40)}, coordAddr)
	b := startMemberNode(t, "b", nil, coordAddr)
	if err := a.views.Define("copy", `doc("catalog")`, "a"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "B to learn the catalog route", func() bool {
		return b.mem.Routes()["catalog"] == a.addr
	})

	// Skewed demand: every query arrives at B, which forwards to A.
	cb := dialT(t, b.addr)
	for i := 0; i < 12; i++ {
		out, err := cb.QueryAll(`doc("catalog")/item/name`)
		if err != nil {
			t.Fatalf("forwarded query %d: %v", i, err)
		}
		if len(out) != 40 {
			t.Fatalf("forwarded query rows = %d, want 40", len(out))
		}
	}

	decisions, err := coord.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var moved bool
	for _, d := range decisions {
		if d.View == "copy" && d.To == "b" && (d.Action == "migrate" || d.Action == "replicate") {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("round did not move the copy to the consumer: %v", decisions)
	}

	// B now holds the adopted copy and serves without forwarding.
	waitFor(t, 5*time.Second, "the copy to land at B", func() bool {
		sites, ok := b.views.PlacementsOf("copy")
		return ok && len(sites) == 1
	})
	out, err := cb.QueryAll(`doc("catalog")/item/name`)
	if err != nil {
		t.Fatalf("query after migration: %v", err)
	}
	if len(out) != 40 {
		t.Errorf("rows after migration = %d, want 40", len(out))
	}

	// The next round's fresh exports surface the new placement in the
	// coordinator's aggregated map.
	if _, err := coord.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	placements, log := coord.ClusterPlacements()
	var atB bool
	for _, p := range placements {
		if p.View == "copy" && p.At == "b" {
			atB = true
		}
	}
	if !atB {
		t.Errorf("aggregated placements = %+v, want copy@b", placements)
	}
	if len(log) == 0 {
		t.Error("decision log empty after an actuated round")
	}
}

// TestCoordinatorFailOpenMemberDown: a member that is unreachable at
// round start degrades (down, last demand decayed) without failing the
// round for everyone else.
func TestCoordinatorFailOpenMemberDown(t *testing.T) {
	coord, coordAddr := startCoordinatorNode(t, CoordinatorConfig{
		RPCTimeout:   200 * time.Millisecond,
		Retries:      1,
		RetryBackoff: 10 * time.Millisecond,
	})
	startMemberNode(t, "alive", map[string]string{"catalog": catalogXML(5)}, coordAddr)

	// A member whose address nobody answers: a listener we close right
	// away keeps the port reserved-but-dead.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	if _, err := coord.Hello(wire.MemberInfo{ID: "ghost", Addr: deadAddr}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the live member to register", func() bool {
		return len(coord.MemberStatuses()) == 2
	})

	start := time.Now()
	if _, err := coord.Step(context.Background()); err != nil {
		t.Fatalf("round must fail open, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("round took %s; the dead member must not wedge it", d)
	}
	for _, st := range coord.MemberStatuses() {
		switch st.ID {
		case "ghost":
			if !st.Down {
				t.Error("ghost must be marked down")
			}
		case "alive":
			if st.Down || !st.HasDemand {
				t.Errorf("alive member state = %+v", st)
			}
		}
	}
}

// slowControl answers one DEMAND normally, then blocks until released —
// the member-hangs-mid-round fault.
type slowControl struct {
	wire.MemberControl
	export   placement.Export
	calls    chan struct{}
	release  chan struct{}
	arrivals atomic.Int32 // DEMAND requests received, answered or not
}

func (s *slowControl) Demand(context.Context) (placement.Export, error) {
	s.arrivals.Add(1)
	select {
	case s.calls <- struct{}{}:
		return s.export, nil
	default:
		<-s.release
		return s.export, nil
	}
}

// TestCoordinatorDemandTimeout: a member that stops answering DEMAND
// times out within the retry envelope and degrades to its last-known
// (decayed) demand; the round still completes.
func TestCoordinatorDemandTimeout(t *testing.T) {
	coord, _ := startCoordinatorNode(t, CoordinatorConfig{
		RPCTimeout:   150 * time.Millisecond,
		Retries:      1,
		RetryBackoff: 10 * time.Millisecond,
	})
	stub := &slowControl{
		export:  placement.Export{Member: "slow", Loads: []placement.LoadExport{{Doc: "d", Weight: 8}}},
		calls:   make(chan struct{}, 1), // first Demand succeeds, later ones block
		release: make(chan struct{}),
	}
	defer close(stub.release)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Peer: peer.New("slow"), Member: stub}
	go srv.Serve(l) //nolint:errcheck // closed by test cleanup
	t.Cleanup(func() { l.Close() })
	if _, err := coord.Hello(wire.MemberInfo{ID: "slow", Addr: l.Addr().String()}); err != nil {
		t.Fatal(err)
	}

	if _, err := coord.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	sts := coord.MemberStatuses()
	if len(sts) != 1 || sts[0].Down || !sts[0].HasDemand {
		t.Fatalf("after healthy round: %+v", sts)
	}

	start := time.Now()
	if _, err := coord.Step(context.Background()); err != nil {
		t.Fatalf("round with a hung member must fail open, got %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("hung member stalled the round for %s", d)
	}
	sts = coord.MemberStatuses()
	if len(sts) != 1 || !sts[0].Down || !sts[0].HasDemand {
		t.Fatalf("after timed-out round: %+v (want down with retained demand)", sts)
	}
}

// TestMigrateTargetDiesMidShip: a target that dies mid-ACCEPTVIEW never
// confirms the landing, so the source keeps its copy — nothing is ever
// half-moved.
func TestMigrateTargetDiesMidShip(t *testing.T) {
	a := startMemberNode(t, "a", map[string]string{"catalog": catalogXML(30)}, "")
	if err := a.views.Define("copy", `doc("catalog")`, "a"); err != nil {
		t.Fatal(err)
	}

	// The "target": accepts the connection, reads a little, dies.
	dying, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dying.Close() })
	go func() {
		conn, err := dying.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		_, _ = conn.Read(buf)
		conn.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := a.mem.MigrateView(ctx, "copy", "t", dying.Addr().String(), false); err == nil {
		t.Fatal("migrate to a dying target must fail")
	}
	sites, ok := a.views.PlacementsOf("copy")
	if !ok || len(sites) != 1 || sites[0] != "a" {
		t.Fatalf("source placements after failed ship = %v ok=%v (copy must stay)", sites, ok)
	}
}

// TestPartialAcceptViewLandsNothing: ACCEPTVIEW bytes that arrive
// without their line terminator (the sender died mid-write) are not a
// request — the receiving member's catalog stays untouched.
func TestPartialAcceptViewLandsNothing(t *testing.T) {
	b := startMemberNode(t, "b", nil, "")
	conn, err := net.Dial("tcp", b.addr)
	if err != nil {
		t.Fatal(err)
	}
	partial := `ACCEPTVIEW copy <x:ship query="doc(&quot;catalog&quot;)" origin="a"><catalog><item>`
	if _, err := conn.Write([]byte(partial)); err != nil {
		t.Fatal(err)
	}
	conn.Close() // dead before the newline: the line never existed

	time.Sleep(100 * time.Millisecond)
	if views := b.views.Views(); len(views) != 0 {
		t.Fatalf("partial ship landed a view: %+v", views)
	}
}

// TestMemberByeOnClose: a closing member deregisters, so the next round
// does not wait on its timeout envelope.
func TestMemberByeOnClose(t *testing.T) {
	coord, coordAddr := startCoordinatorNode(t, CoordinatorConfig{})
	m := startMemberNode(t, "leaver", nil, coordAddr)
	waitFor(t, 5*time.Second, "the member to register", func() bool {
		return len(coord.MemberStatuses()) == 1
	})
	m.mem.Close()
	waitFor(t, 5*time.Second, "the member to deregister", func() bool {
		return len(coord.MemberStatuses()) == 0
	})
}

// serveMember puts a stub member control on a real listener and
// registers it with the coordinator.
func serveMember(t *testing.T, coord *Coordinator, id string, ctl wire.MemberControl) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Peer: peer.New(netsim.PeerID(id)), Member: ctl}
	go srv.Serve(l) //nolint:errcheck // closed by test cleanup
	t.Cleanup(func() { l.Close() })
	if _, err := coord.Hello(wire.MemberInfo{ID: id, Addr: l.Addr().String()}); err != nil {
		t.Fatal(err)
	}
}

// TestDownMemberGetsOneAttemptPerRound: the round that finds a member
// hung spends the whole retry envelope on it and marks it down; while
// it stays down every later round spends one attempt, not the envelope
// again, and the first answer brings it back. Counted at the member,
// not timed.
func TestDownMemberGetsOneAttemptPerRound(t *testing.T) {
	const retries = 2
	coord, _ := startCoordinatorNode(t, CoordinatorConfig{
		RPCTimeout:   150 * time.Millisecond,
		Retries:      retries,
		RetryBackoff: 5 * time.Millisecond,
	})
	stub := &slowControl{
		export:  placement.Export{Member: "slow"},
		calls:   make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	serveMember(t, coord, "slow", stub)
	step := func(what string, wantArrivals int32, wantDown bool) {
		t.Helper()
		before := stub.arrivals.Load()
		if _, err := coord.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := stub.arrivals.Load() - before; got != wantArrivals {
			t.Errorf("%s: %d DEMAND attempts, want %d", what, got, wantArrivals)
		}
		if sts := coord.MemberStatuses(); len(sts) != 1 || sts[0].Down != wantDown {
			t.Errorf("%s: statuses %+v, want down=%v", what, sts, wantDown)
		}
	}
	step("healthy round", 1, false)
	step("round that marks it down", retries+1, true)
	step("round with the member known down", 1, true)
	close(stub.release)
	step("round after it answers again", 1, false)
}

// recControl is a member that reports a canned export and records the
// shipping orders it gets, refusing those for one view.
type recControl struct {
	wire.MemberControl
	export placement.Export

	mu       sync.Mutex
	failView string
	orders   []string
}

func (r *recControl) Demand(context.Context) (placement.Export, error) { return r.export, nil }

func (r *recControl) MigrateView(_ context.Context, name, targetID, _ string, keep bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if name == r.failView {
		return errors.New("disk full")
	}
	r.orders = append(r.orders, fmt.Sprintf("ship %s to %s keep=%v", name, targetID, keep))
	return nil
}

// heal stops the refusals and returns the orders accepted so far.
func (r *recControl) heal() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failView = ""
	return r.orders
}

// TestStepFailsOpenOnActuation: one of two shipping orders is refused.
// STEP still answers with the one that landed and no error; the refusal
// is counted, the refused view neither logged nor rested, and the round
// left its trace under the unified name.
func TestStepFailsOpenOnActuation(t *testing.T) {
	reg := obs.NewRegistry()
	coord, _ := startCoordinatorNode(t, CoordinatorConfig{
		Placement: placement.Config{MaxReplicas: 1},
		Metrics:   reg,
	})
	holder := &recControl{failView: "v1", export: placement.Export{Member: "a", Views: []placement.ViewExport{
		{Name: "v1", BaseDoc: "d1", Base: true, Bytes: 4000},
		{Name: "v2", BaseDoc: "d2", Base: true, Bytes: 4000},
	}}}
	reader := &recControl{export: placement.Export{Member: "b", Loads: []placement.LoadExport{
		{Doc: "d1", Weight: 12}, {Doc: "d2", Weight: 12},
	}}}
	serveMember(t, coord, "a", holder)
	serveMember(t, coord, "b", reader)

	made, err := coord.Step(context.Background())
	if err != nil {
		t.Fatalf("a refused order must not fail the round: %v", err)
	}
	if len(made) != 1 || made[0].View != "v2" || made[0].Action != "migrate" || made[0].To != "b" {
		t.Fatalf("made = %v, want the one migrate of v2 to b", made)
	}
	if got, want := holder.heal(), []string{"ship v2 to b keep=false"}; !reflect.DeepEqual(got, want) {
		t.Errorf("orders at the holder = %v, want %v", got, want)
	}
	if _, log := coord.ClusterPlacements(); len(log) != 1 || log[0].View != "v2" {
		t.Errorf("decision log = %v, want only v2's move", log)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"cluster.rpc.errors": 1, "placement.errors": 1, "placement.rounds": 1, "placement.actions.migrate": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	tr := reg.TraceByID("placement-round-1")
	if tr == nil {
		t.Fatalf("no placement-round-1 trace; have %v", reg.TraceIDs())
	}
	phases := map[string]int{}
	for _, sp := range tr.Spans() {
		phases[sp.Phase]++
	}
	if want := map[string]int{"observe": 1, "demand": 2, "plan": 1, "actuate": 2}; !reflect.DeepEqual(phases, want) {
		t.Errorf("trace phases = %v, want %v", phases, want)
	}

	// v1 was not rested: with the holder healed the next round moves it.
	made, _ = coord.Step(context.Background())
	if len(made) != 1 || made[0].View != "v1" {
		t.Errorf("next round made %v, want v1's move", made)
	}
}

// TestCoordinatorEvictsOverBudget: budgets are keyed by member ID, and
// a member holding more view bytes than its budget is told to drop
// copies until it fits — the coordinator used to only keep moves away
// from such a member. Both views derive from a document the member
// hosts itself, so neither costs anything to lose and the tie goes by
// name.
func TestCoordinatorEvictsOverBudget(t *testing.T) {
	const budget = 2500
	coord, coordAddr := startCoordinatorNode(t, CoordinatorConfig{
		Placement: placement.Config{Budgets: map[netsim.PeerID]int64{"a": budget}},
	})
	a := startMemberNode(t, "a", map[string]string{"catalog": catalogXML(40)}, coordAddr)
	for name, q := range map[string]string{
		"all":   `doc("catalog")`,
		"cheap": `for $i in doc("catalog")/item where $i/price < 300 return $i`,
	} {
		if err := a.views.Define(name, q, "a"); err != nil {
			t.Fatal(err)
		}
	}
	held := func() (total int64) {
		for _, pi := range a.views.Placements() {
			total += pi.Bytes
		}
		return total
	}
	if held() <= budget {
		t.Fatalf("bad setup: a holds %d view bytes, budget %d", held(), budget)
	}
	waitFor(t, 5*time.Second, "a to register", func() bool { return len(coord.MemberStatuses()) == 1 })
	made, err := coord.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(made) != 1 || made[0].Action != "evict" || made[0].View != "all" || made[0].From != "a" {
		t.Fatalf("made = %v, want the eviction of all from a", made)
	}
	if _, ok := a.views.PlacementsOf("all"); ok {
		t.Error("a still holds the evicted copy: DROPVIEW did not arrive")
	}
	if _, ok := a.views.PlacementsOf("cheap"); !ok {
		t.Error("eviction went on past the budget")
	}
	if held() > budget {
		t.Errorf("a still over budget: %d > %d", held(), budget)
	}
}
