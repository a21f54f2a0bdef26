package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/obs"
	"axml/internal/opt"
	"axml/internal/peer"
	"axml/internal/placement"
	"axml/internal/service"
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/wire"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// poolCap bounds the idle wire clients kept per remote address.
const poolCap = 4

// demandDecay ages the local demand counters after each x:demand
// export, so consecutive exports report fresh traffic, not the whole
// history again.
const demandDecay = 0.5

// MemberConfig tunes one deployment's federation agent.
type MemberConfig struct {
	// ID is this deployment's cluster-wide identity.
	ID string
	// Advertise is the address other members dial to reach this
	// deployment's wire server.
	Advertise string
	// Coordinator is the coordinator's wire address.
	Coordinator string
	// SelfPeer is the served peer inside the local system — where
	// adopted views land and forwarded demand is attributed.
	SelfPeer netsim.PeerID
	// HeartbeatInterval paces x:hello re-registration and route refresh
	// (default 2s).
	HeartbeatInterval time.Duration
	// RPCTimeout bounds each outbound control RPC and each forwarded
	// row read (default 5s).
	RPCTimeout time.Duration
	// Logger receives membership and actuation events. Nil discards.
	Logger *slog.Logger
	// Metrics receives member counters (cluster.forwarded,
	// cluster.adopted, cluster.shipped). Nil disables.
	Metrics *obs.Registry
}

func (c MemberConfig) filled() MemberConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Member is one deployment's federation agent: it heartbeats the
// coordinator, provides the member's control services on its peer and
// forwards queries over documents other members host (wire.Forwarder).
type Member struct {
	cfg   MemberConfig
	sys   *core.System
	self  *peer.Peer
	views *view.Manager
	obs   *placement.Observer

	mu      sync.Mutex
	routes  map[string]string         // base document → owning member's address
	pool    map[string][]*wire.Client // forwarded-query connections
	closed  bool
	started bool

	stop chan struct{}
	done chan struct{}
}

// NewMember builds the agent and registers x:demand, x:migrate,
// x:drop-view and x:accept-view on the served peer. obsv is the demand
// observer the serving session feeds (session.WithTrafficSink); the
// member exports and decays it on x:demand.
func NewMember(cfg MemberConfig, sys *core.System, views *view.Manager, obsv *placement.Observer) (*Member, error) {
	cfg = cfg.filled()
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: member needs an ID")
	}
	self, ok := sys.Peer(cfg.SelfPeer)
	if !ok {
		return nil, fmt.Errorf("cluster: no peer %q in the local system", cfg.SelfPeer)
	}
	m := &Member{
		cfg:    cfg,
		sys:    sys,
		self:   self,
		views:  views,
		obs:    obsv,
		routes: map[string]string{},
		pool:   map[string][]*wire.Client{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if err := register(self, map[string]service.BuiltinFunc{
		"x:demand":      m.serveDemand,
		"x:migrate":     m.serveMigrate,
		"x:drop-view":   m.serveDropView,
		"x:accept-view": m.serveAcceptView,
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// Start launches the heartbeat loop: periodic x:hello registration at
// the coordinator, whose membership reply refreshes the forwarding
// routes. A failed heartbeat is retried at the next tick.
func (m *Member) Start() {
	m.mu.Lock()
	if m.started || m.closed {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	go m.heartbeat()
}

func (m *Member) heartbeat() {
	defer close(m.done)
	t := time.NewTicker(m.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		if err := m.hello(); err != nil {
			m.cfg.Logger.Warn("heartbeat failed", "coordinator", m.cfg.Coordinator, "err", err)
		}
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
	}
}

// hello registers with the coordinator and rebuilds the routing table
// from the returned membership: each base document maps to the first
// other member advertising it.
func (m *Member) hello() error {
	if m.cfg.Coordinator == "" {
		return nil
	}
	members, err := call(context.Background(), m.cfg.Coordinator, m.cfg.RPCTimeout, "x:hello", m.describe().toXML())
	if err != nil {
		return err
	}
	if members == nil || members.Label != "x:members" {
		return fmt.Errorf("cluster: hello reply is not x:members")
	}
	routes := map[string]string{}
	for _, ch := range members.ChildElementsByLabel("x:member") {
		other, err := memberInfoFromXML(ch)
		if err != nil {
			return err
		}
		if other.ID == m.cfg.ID {
			continue
		}
		for _, doc := range other.Docs {
			if _, ok := routes[doc]; !ok {
				routes[doc] = other.Addr
			}
		}
	}
	m.mu.Lock()
	m.routes = routes
	m.mu.Unlock()
	return nil
}

// describe snapshots this deployment for x:hello: its base documents
// (view documents excluded — views travel in demand exports).
func (m *Member) describe() MemberInfo {
	info := MemberInfo{ID: m.cfg.ID, Addr: m.cfg.Advertise}
	for _, name := range m.self.DocumentNames() {
		if !strings.HasPrefix(name, view.DocPrefix) {
			info.Docs = append(info.Docs, name)
		}
	}
	return info
}

// Close deregisters from the coordinator (best effort), stops the
// heartbeat and closes pooled connections. Safe to call more than
// once.
func (m *Member) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	started := m.started
	pool := m.pool
	m.pool = map[string][]*wire.Client{}
	m.mu.Unlock()
	close(m.stop)
	if started {
		<-m.done
	}
	for _, clients := range pool {
		for _, cl := range clients {
			cl.Close()
		}
	}
	if m.cfg.Coordinator != "" {
		_, _ = call(context.Background(), m.cfg.Coordinator, m.cfg.RPCTimeout,
			"x:bye", MemberInfo{ID: m.cfg.ID, Addr: m.cfg.Advertise}.toXML())
	}
}

// dial returns a pooled client for addr, or dials a fresh one; only
// forwarded queries use the pool.
func (m *Member) dial(addr string) (*wire.Client, error) {
	m.mu.Lock()
	if list := m.pool[addr]; len(list) > 0 {
		cl := list[len(list)-1]
		m.pool[addr] = list[:len(list)-1]
		m.mu.Unlock()
		return cl, nil
	}
	m.mu.Unlock()
	return dial(addr, m.cfg.RPCTimeout)
}

// put returns a client to the pool (or closes it when the pool is
// full or the member closed).
func (m *Member) put(addr string, cl *wire.Client) {
	m.mu.Lock()
	if !m.closed && len(m.pool[addr]) < poolCap {
		m.pool[addr] = append(m.pool[addr], cl)
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()
	cl.Close()
}

// param checks a control service's arguments, the member's and the
// coordinator's alike: one tree labelled label, or none when label is
// "".
func param(args [][]*xmltree.Node, label string) (*xmltree.Node, error) {
	switch {
	case label == "" && len(args) == 0:
		return nil, nil
	case label != "" && len(args) == 1 && len(args[0]) == 1 && args[0][0].Label == label:
		return args[0][0], nil
	case label == "":
		return nil, fmt.Errorf("%w: control service takes no parameter", session.ErrBadQuery)
	}
	return nil, fmt.Errorf("%w: control service takes one <%s> parameter", session.ErrBadQuery, label)
}

// serveDemand is x:demand: this deployment's placement export — view
// placements, and the observer's decayed demand with locally estimated
// selectivities. Exporting decays the counters (export-and-decay), so
// each round reports the traffic since the previous one with EWMA
// history, exactly like the in-process deployment's Observe.
func (m *Member) serveDemand(args [][]*xmltree.Node) ([]*xmltree.Node, error) {
	if _, err := param(args, ""); err != nil {
		return nil, err
	}
	e := placement.Export{Member: m.cfg.ID}
	baseDocs := map[string]string{}
	for _, def := range m.views.Definitions() {
		if refs := def.Query.DocRefs(); len(refs) > 0 {
			baseDocs[def.Name] = refs[0]
		}
	}
	sizes := map[string]view.PlacementInfo{}
	for _, pi := range m.views.Placements() {
		if prev, ok := sizes[pi.View]; !ok || pi.Bytes > prev.Bytes {
			sizes[pi.View] = pi
		}
	}
	for _, vi := range m.views.Views() {
		base := baseDocs[vi.Name]
		pi := sizes[vi.Name]
		e.Views = append(e.Views, placement.ViewExport{
			Name:    vi.Name,
			Query:   vi.Query,
			Mode:    vi.Mode,
			Origin:  vi.Origin,
			BaseDoc: base,
			Base:    base != "" && m.self.HasDocument(base),
			Bytes:   pi.Bytes,
			Trees:   pi.Trees,
		})
	}
	e.Loads = m.obs.Loads(opt.NewEstimator(m.sys))
	m.obs.Decay(demandDecay)
	return []*xmltree.Node{e.ToXML()}, nil
}

// serveMigrate is x:migrate: ship the view to the member the x:move
// parameter names, keeping the local copy when keep="true".
func (m *Member) serveMigrate(args [][]*xmltree.Node) ([]*xmltree.Node, error) {
	mv, err := param(args, "x:move")
	if err != nil {
		return nil, err
	}
	name, _ := mv.Attr("view")
	to, _ := mv.Attr("to")
	addr, _ := mv.Attr("addr")
	keep, _ := mv.Attr("keep")
	return nil, m.MigrateView(context.Background(), name, to, addr, keep == "true")
}

// MigrateView ships the named view to another member: snapshot-pinned
// copy here, one x:accept-view call there, and — for a migrate — the
// local copy is dropped only after the target confirmed the landing,
// so a target dying mid-ship leaves this copy authoritative and nothing
// half-moved anywhere.
func (m *Member) MigrateView(ctx context.Context, name, targetID, targetAddr string, keep bool) error {
	mv, err := m.views.Materialized(name)
	if err != nil {
		return err
	}
	origin := mv.Origin
	if origin == "" {
		origin = m.cfg.ID
	}
	ship := xmltree.E("x:ship",
		xmltree.A("name", name),
		xmltree.A("query", mv.Query),
		xmltree.A("origin", origin))
	ship.AppendChild(mv.Root)
	if _, err := call(ctx, targetAddr, m.cfg.RPCTimeout, "x:accept-view", ship); err != nil {
		return fmt.Errorf("cluster: shipping %q to %s: %w", name, targetID, err)
	}
	if mc := m.cfg.Metrics; mc != nil {
		mc.Counter("cluster.shipped").Inc()
	}
	m.cfg.Logger.Info("shipped view", "view", name, "to", targetID, "keep", keep)
	if keep {
		return nil
	}
	if err := m.dropCopies(name); err != nil {
		return fmt.Errorf("cluster: dropping migrated %q: %w", name, err)
	}
	return nil
}

// serveDropView is x:drop-view: drop this deployment's copy of the
// view the x:view parameter names.
func (m *Member) serveDropView(args [][]*xmltree.Node) ([]*xmltree.Node, error) {
	v, err := param(args, "x:view")
	if err != nil {
		return nil, err
	}
	name, _ := v.Attr("name")
	if err := m.dropCopies(name); err != nil {
		return nil, err
	}
	m.cfg.Logger.Info("dropped view", "view", name)
	return nil, nil
}

// dropCopies drops every placement of the named view this deployment
// holds.
func (m *Member) dropCopies(name string) error {
	sites, ok := m.views.PlacementsOf(name)
	if !ok {
		return fmt.Errorf("cluster: no view %q here", name)
	}
	for _, at := range sites {
		if err := m.views.DropPlacement(name, at); err != nil {
			return err
		}
	}
	return nil
}

// serveAcceptView is x:accept-view: land the view an x:ship parameter
// carries from another member. The tree is adopted at the serving peer,
// registered for query rewriting, and marked adopted (no local
// maintenance — the base data lives at origin). The whole ship arrives
// on one request line, so the landing is all-or-nothing: a connection
// that dies mid-ship delivers no line and nothing happens here.
func (m *Member) serveAcceptView(args [][]*xmltree.Node) ([]*xmltree.Node, error) {
	ship, err := param(args, "x:ship")
	if err != nil {
		return nil, err
	}
	name, _ := ship.Attr("name")
	query, _ := ship.Attr("query")
	origin, _ := ship.Attr("origin")
	trees := ship.ChildElements()
	if len(trees) != 1 {
		return nil, fmt.Errorf("%w: x:ship carries %d trees, want 1", session.ErrBadQuery, len(trees))
	}
	if err := m.views.Adopt(name, query, m.cfg.SelfPeer, trees[0], origin); err != nil {
		return nil, err
	}
	if mc := m.cfg.Metrics; mc != nil {
		mc.Counter("cluster.adopted").Inc()
	}
	m.cfg.Logger.Info("adopted view", "view", name, "origin", origin)
	return nil, nil
}

// ForwardQuery routes a query over a document another member hosts
// (wire.Forwarder): one forwarded QUERYX marked +fwd, demand recorded
// locally — the consumer sits here, and that is what the coordinator
// must see when it decides where the data belongs.
func (m *Member) ForwardQuery(ctx context.Context, src string) (*session.Rows, bool, error) {
	q, err := xquery.Parse(src)
	if err != nil {
		return nil, false, nil
	}
	refs := q.DocRefs()
	if len(refs) == 0 {
		return nil, false, nil
	}
	m.mu.Lock()
	addr := m.routes[refs[0]]
	m.mu.Unlock()
	if addr == "" {
		return nil, false, nil
	}
	cl, err := m.dial(addr)
	if err != nil {
		return nil, true, err
	}
	rows, err := cl.Query(ctx, src, session.WithNoTraffic())
	if err != nil {
		cl.Close()
		return nil, true, err
	}
	if m.obs != nil {
		m.obs.ObserveQuery(m.cfg.SelfPeer, view.QueryKey(q), refs)
	}
	if mc := m.cfg.Metrics; mc != nil {
		mc.Counter("cluster.forwarded").Inc()
	}
	pull := func() (core.Row, error) {
		if rows.Next() {
			if n := rows.Node(); n != nil {
				return core.NodeRow(n), nil
			}
		}
		return core.Row{}, rows.Err()
	}
	closeFn := func() error {
		err := rows.Close()
		if err != nil {
			cl.Close()
			return err
		}
		m.put(addr, cl)
		return nil
	}
	return session.NewRows(pull, closeFn), true, nil
}
