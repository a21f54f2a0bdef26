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
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/wire"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// poolCap bounds the idle wire clients kept per remote address.
const poolCap = 4

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
	// HeartbeatInterval paces HELLO re-registration and route refresh
	// (default 2s).
	HeartbeatInterval time.Duration
	// RPCTimeout bounds each outbound control RPC and each forwarded
	// row read (default 5s).
	RPCTimeout time.Duration
	// Decay ages the local demand counters after each DEMAND export
	// (default 0.5), so consecutive exports report fresh traffic, not
	// the whole history again.
	Decay float64
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
	if c.Decay <= 0 {
		c.Decay = 0.5
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Member is one deployment's federation agent: it heartbeats the
// coordinator, answers the member-side control verbs (wire.MemberControl)
// and forwards queries over documents other members host
// (wire.Forwarder).
type Member struct {
	cfg   MemberConfig
	sys   *core.System
	self  *peer.Peer
	views *view.Manager
	obs   *placement.Observer

	mu      sync.Mutex
	routes  map[string]string // base document → owning member's address
	members []wire.MemberInfo
	pool    map[string][]*wire.Client
	closed  bool
	started bool

	stop chan struct{}
	done chan struct{}
}

// Member serves the member role of the control plane and the
// federated read path.
var (
	_ wire.MemberControl = (*Member)(nil)
	_ wire.Forwarder     = (*Member)(nil)
)

// NewMember builds the agent. obsv is the demand observer the serving
// session feeds (session.WithTrafficSink); the member exports and
// decays it on DEMAND.
func NewMember(cfg MemberConfig, sys *core.System, views *view.Manager, obsv *placement.Observer) (*Member, error) {
	cfg = cfg.filled()
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: member needs an ID")
	}
	self, ok := sys.Peer(cfg.SelfPeer)
	if !ok {
		return nil, fmt.Errorf("cluster: no peer %q in the local system", cfg.SelfPeer)
	}
	return &Member{
		cfg:    cfg,
		sys:    sys,
		self:   self,
		views:  views,
		obs:    obsv,
		routes: map[string]string{},
		pool:   map[string][]*wire.Client{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}, nil
}

// Start launches the heartbeat loop: periodic HELLO registration at
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
	cl, err := m.dial(m.cfg.Coordinator)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.RPCTimeout)
	defer cancel()
	members, err := cl.Hello(ctx, m.describe())
	if err != nil {
		cl.Close()
		return err
	}
	m.put(m.cfg.Coordinator, cl)
	routes := map[string]string{}
	for _, other := range members {
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
	m.members = members
	m.mu.Unlock()
	return nil
}

// describe snapshots this deployment for HELLO: base documents (view
// documents excluded — they travel as views) and view names.
func (m *Member) describe() wire.MemberInfo {
	info := wire.MemberInfo{ID: m.cfg.ID, Addr: m.cfg.Advertise}
	for _, name := range m.self.DocumentNames() {
		if !strings.HasPrefix(name, view.DocPrefix) {
			info.Docs = append(info.Docs, name)
		}
	}
	for _, v := range m.views.Views() {
		info.Views = append(info.Views, v.Name)
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
		_ = call(context.Background(), m.cfg.Coordinator, m.cfg.RPCTimeout,
			func(ctx context.Context, cl *wire.Client) error { return cl.Bye(ctx, m.cfg.ID) })
	}
}

// dial returns a pooled client for addr, or dials a fresh one.
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

// Demand builds this deployment's placement export (wire.MemberControl):
// view placements, and the observer's decayed demand with locally
// estimated selectivities. Exporting decays the counters
// (export-and-decay), so each round reports the traffic since the
// previous one with EWMA history, exactly like the in-process
// deployment's Observe.
func (m *Member) Demand(context.Context) (placement.Export, error) {
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
	m.obs.Decay(m.cfg.Decay)
	return e, nil
}

// MigrateView ships the named view to another member (wire.MemberControl):
// snapshot-pinned deep copy here, one ACCEPTVIEW line there, and —
// for a migrate — the local copy is dropped only after the target
// confirmed the landing, so a target dying mid-ship leaves this copy
// authoritative and nothing half-moved anywhere.
func (m *Member) MigrateView(ctx context.Context, name, targetID, targetAddr string, keep bool) error {
	mv, err := m.views.Materialized(name)
	if err != nil {
		return err
	}
	origin := mv.Origin
	if origin == "" {
		origin = m.cfg.ID
	}
	cl, err := m.dial(targetAddr)
	if err != nil {
		return err
	}
	rctx, cancel := context.WithTimeout(ctx, m.cfg.RPCTimeout)
	err = cl.AcceptView(rctx, name, mv.Query, origin, mv.Root)
	cancel()
	if err != nil {
		cl.Close()
		return fmt.Errorf("cluster: shipping %q to %s: %w", name, targetID, err)
	}
	m.put(targetAddr, cl)
	if mc := m.cfg.Metrics; mc != nil {
		mc.Counter("cluster.shipped").Inc()
	}
	m.cfg.Logger.Info("shipped view", "view", name, "to", targetID, "keep", keep)
	if keep {
		return nil
	}
	sites, ok := m.views.PlacementsOf(name)
	if !ok || len(sites) == 0 {
		return nil
	}
	var errs []error
	for _, at := range sites {
		if err := m.views.DropPlacement(name, at); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("cluster: dropping migrated %q: %v", name, errs[0])
	}
	return nil
}

// DropView drops this deployment's copy of the view (wire.MemberControl).
func (m *Member) DropView(name string) error {
	sites, ok := m.views.PlacementsOf(name)
	if !ok {
		return fmt.Errorf("cluster: no view %q here", name)
	}
	for _, at := range sites {
		if err := m.views.DropPlacement(name, at); err != nil {
			return err
		}
	}
	m.cfg.Logger.Info("dropped view", "view", name)
	return nil
}

// AcceptView lands a view shipped from another member (wire.MemberControl):
// the tree is adopted at the serving peer, registered for query
// rewriting, and marked adopted (no local maintenance — the base data
// lives at origin).
func (m *Member) AcceptView(_ context.Context, name, query, origin string, root *xmltree.Node) error {
	if err := m.views.Adopt(name, query, m.cfg.SelfPeer, root, origin); err != nil {
		return err
	}
	if mc := m.cfg.Metrics; mc != nil {
		mc.Counter("cluster.adopted").Inc()
	}
	m.cfg.Logger.Info("adopted view", "view", name, "origin", origin)
	return nil
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
	pull := func() (*xmltree.Node, error) {
		if rows.Next() {
			return rows.Node(), nil
		}
		return nil, rows.Err()
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

// Routes returns the current document→member-address forwarding table
// (tests and diagnostics).
func (m *Member) Routes() map[string]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]string, len(m.routes))
	for k, v := range m.routes {
		out[k] = v
	}
	return out
}
