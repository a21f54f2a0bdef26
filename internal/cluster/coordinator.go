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
	// Placement configures the shared scorer (hysteresis, horizon,
	// replica cap, budgets — keyed by member ID) exactly as for the
	// in-process controller.
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
	// Logger receives round and actuation events. Nil discards.
	Logger *slog.Logger
	// Metrics receives cluster counters (cluster.rounds,
	// cluster.actions.*, cluster.rpc.errors), the members gauge, and a
	// per-round trace. Nil disables.
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
	// The scorer's own defaults (hysteresis, horizon, …) are filled by
	// placement.NewScorer; only the knobs the coordinator reads
	// directly need filling here.
	if c.Placement.Cooldown <= 0 {
		c.Placement.Cooldown = 2
	}
	if c.Placement.LogSize <= 0 {
		c.Placement.LogSize = 64
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

// Coordinator aggregates demand across the membership and actuates
// placement decisions through the wire control verbs. It implements
// wire.CoordinatorControl; attach it to a wire.Server and members
// reach it via HELLO/BYE/STEP.
type Coordinator struct {
	cfg CoordinatorConfig

	// stepMu serializes placement rounds (STEP may arrive on several
	// connections); mu guards the member table and decision log and is
	// never held across an RPC.
	stepMu sync.Mutex
	mu     sync.Mutex
	member map[string]*memberState
	round  int
	cool   map[string]int
	log    []placement.Decision
}

// Coordinator serves the coordinator role of the control plane.
var _ wire.CoordinatorControl = (*Coordinator)(nil)

// NewCoordinator builds a coordinator with the config's defaults
// filled in.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	c := &Coordinator{
		cfg:    cfg.filled(),
		member: map[string]*memberState{},
		cool:   map[string]int{},
	}
	if m := c.cfg.Metrics; m != nil {
		m.Gauge("cluster.members", func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return int64(len(c.member))
		})
	}
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
	ids := make([]string, 0, len(c.member))
	for id := range c.member {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var placements []view.PlacementInfo
	for _, id := range ids {
		m := c.member[id]
		if !m.hasExport {
			continue
		}
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
	log := make([]placement.Decision, len(c.log))
	copy(log, c.log)
	return placements, log
}

// Decisions returns the retained decision log, newest last.
func (c *Coordinator) Decisions() []placement.Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]placement.Decision, len(c.log))
	copy(out, c.log)
	return out
}

// viewAgg is the coordinator's merged picture of one view across the
// membership.
type viewAgg struct {
	name    string
	bytes   int64
	sites   []netsim.PeerID
	origin  string
	baseDoc string
	demand  map[netsim.PeerID]float64
	loads   []placement.LoadExport
}

// Step runs one placement round (wire.CoordinatorControl): collect
// demand from every member, plan against the aggregate with the shared
// scorer, actuate the decisions over the wire, then record them.
// Collection and actuation hold no lock — a member answering DEMAND may
// itself be serving queries that call back into this process's
// PLACEMENTS.
func (c *Coordinator) Step(ctx context.Context) ([]placement.Decision, error) {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()

	c.mu.Lock()
	c.round++
	round := c.round
	type target struct{ id, addr string }
	targets := make([]target, 0, len(c.member))
	for id, m := range c.member {
		targets = append(targets, target{id, m.info.Addr})
	}
	c.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].id < targets[j].id })

	if m := c.cfg.Metrics; m != nil {
		m.Counter("cluster.rounds").Inc()
	}
	tr := obs.NewTrace(fmt.Sprintf("cluster-round-%d", round))
	tctx := obs.WithTrace(ctx, tr)

	// Phase 1: collect demand. Sequential keeps the round analyzable
	// (membership is small); each member gets the full timeout+retry
	// envelope, and a failure degrades that member to its decayed
	// last-known demand instead of failing the round.
	for _, t := range targets {
		_, sp := obs.StartSpan(tctx, "demand", t.id)
		//axmlvet:ignore lockedcall stepMu serializes rounds and is never taken by RPC handlers; the data mutex c.mu is not held here
		export, err := c.collectDemand(ctx, t.addr)
		c.mu.Lock()
		if st := c.member[t.id]; st != nil {
			if err != nil {
				st.down = true
				if st.hasExport {
					st.export = st.export.Decayed(c.cfg.StaleDecay)
				}
			} else {
				st.down = false
				st.export = export
				st.hasExport = true
			}
		}
		c.mu.Unlock()
		if err != nil {
			sp.Fail(err)
			c.cfg.Logger.Warn("demand collection failed; using decayed last-known demand",
				"member", t.id, "err", err)
			if m := c.cfg.Metrics; m != nil {
				m.Counter("cluster.rpc.errors").Inc()
			}
		}
		sp.End()
	}

	// Phase 2: plan under the lock (pure computation, no I/O).
	_, plsp := obs.StartSpan(tctx, "plan", "")
	decisions, sources, addrs := c.plan(round)
	plsp.End()

	// Phase 3: actuate without the lock — each order ships view bytes
	// between two other processes. A failed actuation is logged and
	// dropped; the next round replans from fresh demand.
	var done []placement.Decision
	for _, d := range decisions {
		_, sp := obs.StartSpan(tctx, "actuate", d.String())
		err := c.actuate(ctx, d, sources[d.View], addrs)
		if err != nil {
			sp.Fail(err)
			c.cfg.Logger.Warn("actuation failed", "decision", d.String(), "err", err)
			if m := c.cfg.Metrics; m != nil {
				m.Counter("cluster.rpc.errors").Inc()
			}
		} else {
			c.cfg.Logger.Info("actuated", "decision", d.String())
			if m := c.cfg.Metrics; m != nil {
				m.Counter("cluster.actions." + d.Action).Inc()
			}
			done = append(done, d)
		}
		sp.End()
	}

	// Phase 4: bookkeeping.
	c.mu.Lock()
	for v, n := range c.cool {
		if n <= 1 {
			delete(c.cool, v)
		} else {
			c.cool[v] = n - 1
		}
	}
	for _, d := range done {
		c.cool[d.View] = c.cfg.Placement.Cooldown
		c.log = append(c.log, d)
	}
	if over := len(c.log) - c.cfg.Placement.LogSize; over > 0 {
		c.log = append([]placement.Decision(nil), c.log[over:]...)
	}
	c.mu.Unlock()
	if m := c.cfg.Metrics; m != nil {
		m.RecordTrace(tr)
	}
	return done, nil
}

// collectDemand fetches one member's export with the timeout/retry/
// backoff envelope. Each attempt dials fresh, so a member that
// restarted between rounds is simply reached again.
func (c *Coordinator) collectDemand(ctx context.Context, addr string) (placement.Export, error) {
	backoff := c.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return placement.Export{}, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		export, err := c.demandOnce(ctx, addr)
		if err == nil {
			return export, nil
		}
		lastErr = err
	}
	return placement.Export{}, lastErr
}

func (c *Coordinator) demandOnce(ctx context.Context, addr string) (placement.Export, error) {
	cl, err := wire.Dial(addr,
		wire.WithDialTimeout(c.cfg.RPCTimeout),
		wire.WithIOTimeout(c.cfg.RPCTimeout))
	if err != nil {
		return placement.Export{}, err
	}
	defer cl.Close()
	rctx, cancel := context.WithTimeout(ctx, c.cfg.RPCTimeout)
	defer cancel()
	return cl.Demand(rctx)
}

// plan aggregates the latest exports into per-view loads and scores
// them. It returns the decisions, the shipping source per view (for
// replicate, which the scorer leaves open), and the member address
// book for actuation.
func (c *Coordinator) plan(round int) ([]placement.Decision, map[string]netsim.PeerID, map[string]string) {
	c.mu.Lock()
	defer c.mu.Unlock()

	alive := map[netsim.PeerID]bool{}
	addrs := map[string]string{}
	ids := make([]string, 0, len(c.member))
	for id, m := range c.member {
		ids = append(ids, id)
		addrs[id] = m.info.Addr
		if !m.down {
			alive[netsim.PeerID(id)] = true
		}
	}
	sort.Strings(ids)

	// Merge the exports: which member holds which view, how big it is,
	// who owns the base, and how much demand each member reported
	// against it (view-doc traffic where the copy serves locally,
	// base-doc traffic where queries were forwarded).
	views := map[string]*viewAgg{}
	usage := map[netsim.PeerID]int64{}
	for _, id := range ids {
		m := c.member[id]
		if !m.hasExport {
			continue
		}
		pid := netsim.PeerID(id)
		for _, v := range m.export.Views {
			a := views[v.Name]
			if a == nil {
				a = &viewAgg{name: v.Name, demand: map[netsim.PeerID]float64{}}
				views[v.Name] = a
			}
			a.sites = append(a.sites, pid)
			if v.Bytes > a.bytes {
				a.bytes = v.Bytes
			}
			if v.Origin != "" {
				a.origin = v.Origin
			} else if v.Base && a.origin == "" {
				a.origin = id
			}
			if v.BaseDoc != "" {
				a.baseDoc = v.BaseDoc
			}
			usage[pid] += v.Bytes
		}
	}
	for _, id := range ids {
		m := c.member[id]
		if !m.hasExport {
			continue
		}
		pid := netsim.PeerID(id)
		for _, a := range views {
			w := m.export.DemandWeight(view.DocPrefix+a.name) + m.export.DemandWeight(a.baseDoc)
			if w > 0 {
				a.demand[pid] += w
			}
			for _, l := range m.export.Loads {
				if l.Doc == view.DocPrefix+a.name || (a.baseDoc != "" && l.Doc == a.baseDoc) {
					a.loads = append(a.loads, l)
				}
			}
		}
	}

	budgets := c.cfg.Placement.Budgets
	defaultBudget := c.cfg.Placement.DefaultBudget
	budget := func(p netsim.PeerID) int64 {
		if b, ok := budgets[p]; ok {
			return b
		}
		return defaultBudget
	}
	scorer := placement.NewScorer(c.cfg.Placement,
		func(from, to netsim.PeerID) netsim.Link {
			if from == to {
				return netsim.Link{}
			}
			return c.cfg.Link
		},
		func(p netsim.PeerID) bool { return alive[p] })

	names := make([]string, 0, len(views))
	for name := range views {
		names = append(names, name)
	}
	sort.Strings(names)

	var decisions []placement.Decision
	sources := map[string]netsim.PeerID{}
	for _, name := range names {
		a := views[name]
		if len(a.sites) == 0 || c.cool[name] > 0 {
			continue
		}
		vl := placement.ViewLoad{
			Name:     name,
			Base:     netsim.PeerID(a.origin),
			Sites:    a.sites,
			Bytes:    a.bytes,
			Demand:   a.demand,
			PerQuery: placement.PerQueryBytes(a.bytes, a.loads),
			Usage:    usage,
			Budget:   budget,
		}
		d := scorer.Plan(round, vl)
		if d == nil {
			continue
		}
		// Replicate ships from a holding site the scorer did not pick:
		// prefer the origin's copy (freshest), else any live holder.
		src := vl.Sites[0]
		for _, s := range vl.Sites {
			if string(s) == a.origin {
				src = s
				break
			}
		}
		sources[name] = src
		decisions = append(decisions, *d)
		c.cfg.Logger.Debug("planned", "decision", d.String())
	}
	return decisions, sources, addrs
}

// actuate executes one decision over the wire, against the member that
// holds the data to move.
func (c *Coordinator) actuate(ctx context.Context, d placement.Decision, src netsim.PeerID, addrs map[string]string) error {
	rpc := func(addr string, call func(*wire.Client, context.Context) error) error {
		if addr == "" {
			return fmt.Errorf("cluster: no address for decision %s", d.String())
		}
		cl, err := wire.Dial(addr,
			wire.WithDialTimeout(c.cfg.RPCTimeout),
			wire.WithIOTimeout(c.cfg.RPCTimeout))
		if err != nil {
			return err
		}
		defer cl.Close()
		rctx, cancel := context.WithTimeout(ctx, c.cfg.RPCTimeout)
		defer cancel()
		return call(cl, rctx)
	}
	switch d.Action {
	case "migrate":
		return rpc(addrs[string(d.From)], func(cl *wire.Client, rctx context.Context) error {
			return cl.MigrateView(rctx, d.View, string(d.To), addrs[string(d.To)], false)
		})
	case "replicate":
		return rpc(addrs[string(src)], func(cl *wire.Client, rctx context.Context) error {
			return cl.MigrateView(rctx, d.View, string(d.To), addrs[string(d.To)], true)
		})
	case "drop":
		return rpc(addrs[string(d.From)], func(cl *wire.Client, rctx context.Context) error {
			return cl.DropViewPlacement(rctx, d.View)
		})
	}
	return fmt.Errorf("cluster: unknown action %q", d.Action)
}
