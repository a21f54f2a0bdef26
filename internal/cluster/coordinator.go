package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"axml/internal/netsim"
	"axml/internal/obs"
	"axml/internal/placement"
	"axml/internal/view"
	"axml/internal/wire"
)

// CoordinatorConfig tunes a coordinator. The zero value works: every
// knob has a default.
type CoordinatorConfig struct {
	// Placement configures the placement controller the rounds run on
	// (hysteresis, horizon, replica cap, cooldown, budgets — keyed by
	// member ID) exactly as in process; its Logger and Metrics default
	// to the ones below.
	Placement placement.Config
	// RPCTimeout bounds each control RPC (default 5s).
	RPCTimeout time.Duration
	// Retries is how many times a failed DEMAND is re-attempted before
	// the member degrades to its last-known demand (default 2).
	Retries int
	// RetryBackoff is the first retry delay; it doubles per attempt
	// (default 100ms).
	RetryBackoff time.Duration
	// StaleDecay scales an unreachable member's last-known demand per
	// missed round (default 0.5): a down peer ages out of the demand
	// picture smoothly instead of pinning placements forever or
	// vanishing abruptly.
	StaleDecay float64
	// Link models every member↔member hop for the scorer (default
	// netsim.DefaultLink). The coordinator has no measured topology;
	// a uniform link keeps the scorer's relative comparisons honest.
	Link netsim.Link
	// Logger receives membership and RPC-failure events. Nil discards.
	Logger *slog.Logger
	// Metrics receives the cluster.rpc.errors counter and the
	// cluster.members gauge, beside the controller's placement.*
	// counters and per-round trace. Nil disables.
	Metrics *obs.Registry
}

func (c CoordinatorConfig) filled() CoordinatorConfig {
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 5 * time.Second
	}
	if c.Retries <= 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.StaleDecay <= 0 {
		c.StaleDecay = 0.5
	}
	if c.Link == (netsim.Link{}) {
		c.Link = netsim.DefaultLink
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.Placement.Logger == nil {
		c.Placement.Logger = c.Logger
	}
	if c.Placement.Metrics == nil {
		c.Placement.Metrics = c.Metrics
	}
	return c
}

// memberState is the coordinator's record of one member.
type memberState struct {
	info wire.MemberInfo
	// export is the last demand report; after a failed collection it
	// holds the decayed stand-in (fail-open).
	export    placement.Export
	hasExport bool
	down      bool
}

// Coordinator is the federation seen as a placement.Deployment: it
// keeps the membership, observes by collecting and merging every
// member's demand export, and applies a decision as control RPCs to
// the members holding the data. The rounds themselves — cooldown, one
// action per view, budgets, the decision log — are the
// placement.Controller's it runs under. It implements
// wire.CoordinatorControl; attach it to a wire.Server and members
// reach it via HELLO/BYE/STEP.
type Coordinator struct {
	cfg  CoordinatorConfig
	ctrl *placement.Controller

	// mu guards the member table and the ship sources; it is never
	// held across an RPC.
	mu     sync.Mutex
	member map[string]*memberState
	// source is, per view, the member a replicate ships from (the
	// scorer leaves that open), as of the last Observe.
	source map[string]netsim.PeerID
}

// Coordinator serves the coordinator role of the control plane and is
// the deployment its own controller runs over.
var (
	_ wire.CoordinatorControl = (*Coordinator)(nil)
	_ placement.Deployment    = (*Coordinator)(nil)
)

// NewCoordinator builds a coordinator with the config's defaults
// filled in.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	c := &Coordinator{cfg: cfg.filled(), member: map[string]*memberState{}}
	c.ctrl = placement.NewOver(c, c.cfg.Placement)
	c.cfg.Metrics.Gauge("cluster.members", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.member))
	})
	return c
}

// Hello registers or refreshes a member and returns the current
// membership (wire.CoordinatorControl).
func (c *Coordinator) Hello(info wire.MemberInfo) ([]wire.MemberInfo, error) {
	if info.ID == "" || info.Addr == "" {
		return nil, fmt.Errorf("cluster: HELLO without id/addr")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.member[info.ID]
	if st == nil {
		st = &memberState{}
		c.member[info.ID] = st
		c.cfg.Logger.Info("member joined", "member", info.ID, "addr", info.Addr)
	}
	st.info = info
	st.down = false
	out := make([]wire.MemberInfo, 0, len(c.member))
	for _, m := range c.member {
		out = append(out, m.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Bye deregisters a member that is shutting down cleanly
// (wire.CoordinatorControl).
func (c *Coordinator) Bye(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.member[id]; ok {
		delete(c.member, id)
		c.cfg.Logger.Info("member left", "member", id)
	}
	return nil
}

// MemberStatus is one membership row, for PLACEMENTS-style
// introspection and tests.
type MemberStatus struct {
	ID        string
	Addr      string
	Down      bool
	HasDemand bool
}

// MemberStatuses returns the membership with reachability state,
// sorted by ID.
func (c *Coordinator) MemberStatuses() []MemberStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]MemberStatus, 0, len(c.member))
	for id, m := range c.member {
		out = append(out, MemberStatus{ID: id, Addr: m.info.Addr, Down: m.down, HasDemand: m.hasExport})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ClusterPlacements reports the aggregated cluster-wide placement map
// (from the latest member exports) and the decision log
// (wire.CoordinatorControl).
func (c *Coordinator) ClusterPlacements() ([]view.PlacementInfo, []placement.Decision) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var placements []view.PlacementInfo
	for _, id := range c.memberIDs() {
		m := c.member[id]
		for _, v := range m.export.Views {
			base := v.Origin
			if base == "" && v.Base {
				base = id
			}
			placements = append(placements, view.PlacementInfo{
				View:   v.Name,
				At:     netsim.PeerID(id),
				BaseAt: netsim.PeerID(base),
				Mode:   v.Mode,
				Bytes:  v.Bytes,
				Trees:  v.Trees,
				Behind: -1, // demand exports carry no freshness
			})
		}
	}
	return placements, c.ctrl.Decisions()
}

// memberIDs returns the membership in ID order. Callers hold c.mu.
func (c *Coordinator) memberIDs() []string {
	ids := make([]string, 0, len(c.member))
	for id := range c.member {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Decisions returns the retained decision log, newest last.
func (c *Coordinator) Decisions() []placement.Decision { return c.ctrl.Decisions() }

// Step runs one placement round (wire.CoordinatorControl). It fails
// open: an action whose RPC failed is logged and counted by the
// controller and in cluster.rpc.errors, the next round replans from
// fresh demand, and the round still returns what it did.
func (c *Coordinator) Step(ctx context.Context) ([]placement.Decision, error) {
	made, _ := c.ctrl.Step(ctx)
	return made, nil
}

// rpcFailed records one failed control RPC.
func (c *Coordinator) rpcFailed(err error, msg string, attrs ...any) {
	c.cfg.Logger.Warn(msg, append(attrs, "err", err)...)
	c.cfg.Metrics.Counter("cluster.rpc.errors").Inc()
}

// Observe collects demand from every member and merges the exports
// into one load per view (placement.Deployment). Collection holds no
// lock — a member answering DEMAND may itself be serving queries that
// call back into this process's PLACEMENTS — and is sequential, which
// keeps the round analyzable (membership is small). A failure degrades
// that member to its decayed last-known demand instead of failing the
// round.
func (c *Coordinator) Observe(ctx context.Context) placement.Observation {
	type target struct {
		id, addr string
		down     bool
	}
	c.mu.Lock()
	targets := make([]target, 0, len(c.member))
	for _, id := range c.memberIDs() {
		targets = append(targets, target{id, c.member[id].info.Addr, c.member[id].down})
	}
	c.mu.Unlock()

	for _, t := range targets {
		_, sp := obs.StartSpan(ctx, "demand", t.id)
		// A member already marked down gets one attempt, not the retry
		// envelope, until it answers or re-HELLOs: one that stays down
		// must not tax every round.
		retries := c.cfg.Retries
		if t.down {
			retries = 0
		}
		export, err := c.collectDemand(ctx, t.addr, retries)
		c.mu.Lock()
		if st := c.member[t.id]; st != nil {
			st.down = err != nil
			if err != nil {
				st.export = st.export.Decayed(c.cfg.StaleDecay)
			} else {
				st.export, st.hasExport = export, true
			}
		}
		c.mu.Unlock()
		if err != nil {
			sp.Fail(err)
			c.rpcFailed(err, "demand collection failed; using decayed last-known demand", "member", t.id)
		}
		sp.End()
	}
	return c.merge()
}

// collectDemand fetches one member's export, re-attempting a failure
// up to retries times with doubling backoff. Each attempt dials fresh,
// so a member that restarted between rounds is simply reached again.
func (c *Coordinator) collectDemand(ctx context.Context, addr string, retries int) (placement.Export, error) {
	var export placement.Export
	var err error
	backoff := c.cfg.RetryBackoff
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return placement.Export{}, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		err = call(ctx, addr, c.cfg.RPCTimeout, func(rctx context.Context, cl *wire.Client) error {
			var err error
			export, err = cl.Demand(rctx)
			return err
		})
		if err == nil {
			return export, nil
		}
	}
	return placement.Export{}, err
}

// merge turns the latest exports into per-view loads: which member
// holds which view and how big its copy is, who owns the base, and how
// much demand each member reported against it (view-doc traffic where
// the copy serves locally, base-doc traffic where queries were
// forwarded). Members are peers to the scorer: every member↔member hop
// is the configured link, and a down member is no move target.
func (c *Coordinator) merge() placement.Observation {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := c.memberIDs()
	alive := map[netsim.PeerID]bool{}
	var views []placement.ViewLoad
	at := map[string]int{}
	baseDoc := map[string]string{}
	for _, id := range ids {
		m := c.member[id]
		pid := netsim.PeerID(id)
		alive[pid] = !m.down
		for _, v := range m.export.Views {
			i, ok := at[v.Name]
			if !ok {
				i = len(views)
				at[v.Name] = i
				views = append(views, placement.ViewLoad{Name: v.Name,
					SiteBytes: map[netsim.PeerID]int64{}, Demand: map[netsim.PeerID]float64{}})
			}
			a := &views[i]
			a.Sites = append(a.Sites, pid)
			a.SiteBytes[pid] = v.Bytes
			if v.Origin != "" {
				a.Base = netsim.PeerID(v.Origin)
			} else if v.Base && a.Base == "" {
				a.Base = pid
			}
			if v.BaseDoc != "" {
				baseDoc[v.Name] = v.BaseDoc
			}
		}
	}
	c.source = map[string]netsim.PeerID{}
	for i := range views {
		a := &views[i]
		viewDoc, base := view.DocPrefix+a.Name, baseDoc[a.Name]
		for _, id := range ids {
			for _, l := range c.member[id].export.Loads {
				if l.Doc == viewDoc || (base != "" && l.Doc == base) {
					a.Loads = append(a.Loads, l)
					if l.Weight > 0 {
						a.Demand[netsim.PeerID(id)] += l.Weight
					}
				}
			}
		}
		// Replicate ships from the origin's copy when it holds one
		// (freshest), else from any holder.
		c.source[a.Name] = a.Sites[0]
		for _, s := range a.Sites {
			if s == a.Base {
				c.source[a.Name] = s
			}
		}
	}
	link := c.cfg.Link
	return placement.Observation{
		Views: views,
		Link:  func(_, _ netsim.PeerID) netsim.Link { return link },
		Alive: func(p netsim.PeerID) bool { return alive[p] },
	}
}

// Apply executes one decision over the wire, against the member that
// holds the data to move (placement.Deployment).
func (c *Coordinator) Apply(ctx context.Context, d placement.Decision) error {
	c.mu.Lock()
	addrOf := func(p netsim.PeerID) string {
		if m := c.member[string(p)]; m != nil {
			return m.info.Addr
		}
		return ""
	}
	holder := d.From
	if d.Action == "replicate" {
		holder = c.source[d.View]
	}
	addr, target := addrOf(holder), addrOf(d.To)
	c.mu.Unlock()
	if addr == "" {
		return fmt.Errorf("cluster: no address for decision %s", d.String())
	}
	err := call(ctx, addr, c.cfg.RPCTimeout, func(rctx context.Context, cl *wire.Client) error {
		switch d.Action {
		case "migrate", "replicate":
			return cl.MigrateView(rctx, d.View, string(d.To), target, d.Action == "replicate")
		case "drop", "evict":
			return cl.DropViewPlacement(rctx, d.View)
		}
		return fmt.Errorf("cluster: unknown action %q", d.Action)
	})
	if err != nil {
		c.rpcFailed(err, "actuation failed", "decision", d.String())
	}
	return err
}
