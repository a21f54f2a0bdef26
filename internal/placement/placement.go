// Package placement closes the observe→decide→act loop over
// materialized views: it watches where query traffic for each view
// actually comes from, prices candidate moves with the optimizer's
// transfer and cardinality estimates, and re-places views at runtime —
// migrating a copy to its hottest consumer, adding or dropping
// replicas, and evicting under per-peer byte budgets — through
// view.Manager's placement surgery.
//
// The design follows LiquidXML's adaptive content redistribution and
// ViP2P's observation that placement dominates latency in materialized
// view networks: the paper's framework treats placement as a static
// deployment decision, but its distributed-evaluation rules only pay
// off when views sit near their consumers. Three cooperating pieces:
//
//   - Observer (observer.go) aggregates per-(view, consumer) and
//     per-(view, shape) demand from session traffic (it implements
//     session.TrafficSink structurally) and per-link maintenance
//     volume from netsim's per-kind byte accounting.
//   - the scorer (score.go) values candidate actions: the per-round
//     cost of serving the observed demand from a placement set, the
//     per-round cost of keeping each replica fresh, and the one-time
//     cost of a move, all priced with the same link model and
//     selectivity estimates the optimizer prices plans with.
//   - Controller.Step (this file) is the only round: at most one
//     planned action per view, actuated with no lock held, then the
//     byte budgets enforced by benefit-per-byte eviction, and a bounded
//     decision log for introspection (axmlq -placements). It runs over
//     a Deployment — somewhere views can be observed and moved. There
//     are two: the in-process one behind New (local.go: view.Manager's
//     Migrate/AddPlacement/DropPlacement across simulated peers) and
//     cluster.Coordinator (member demand exports and control RPCs
//     across processes).
//
// Anti-thrashing: demand is EWMA-decayed, every action pays a
// hysteresis margin (minGainFrac) on top of its amortized one-time
// cost, and a moved view rests for Cooldown rounds. A stable workload
// therefore converges to a stable placement.
package placement

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"

	"axml/internal/netsim"
	"axml/internal/obs"
	"axml/internal/view"
)

// Config tunes the controller. The zero value is usable: unlimited
// budgets, conservative hysteresis, two placements per view.
type Config struct {
	// Budgets caps the total bytes of view placements each peer may
	// hold; peers absent from the map fall back to DefaultBudget.
	// Zero means unlimited.
	Budgets map[netsim.PeerID]int64
	// DefaultBudget is the per-peer byte budget for peers without an
	// explicit entry (0 = unlimited).
	DefaultBudget int64
	// Cooldown is how many rounds a view rests after an action
	// (default 2).
	Cooldown int
	// MaxReplicas caps the placements per view (default 2).
	MaxReplicas int
	// LogSize bounds the retained decision log (default 64).
	LogSize int
	// Logger receives structured decision events (one Info record per
	// executed action, a Debug record per round). Nil discards.
	Logger *slog.Logger
	// Metrics receives controller counters (placement.rounds,
	// placement.actions.<kind>, placement.errors) and one
	// placement-round-N trace per round. Nil disables.
	Metrics *obs.Registry
}

// The scorer's fixed tuning.
const (
	// minGainFrac is the hysteresis margin: an action is taken only when
	// its net per-round gain exceeds this fraction of the current
	// per-round cost.
	minGainFrac = 0.05
	// horizonRounds amortizes one-time move costs: a migration must pay
	// for itself within this many rounds.
	horizonRounds = 8
	// churnFrac estimates per-round maintenance volume as a fraction of
	// the view size when no maintenance traffic has been observed yet.
	churnFrac = 0.05
	// demandDecay is the per-round EWMA factor on observed demand.
	demandDecay = 0.5
	// topK bounds how many of a view's hottest consumers are considered
	// as move targets each round.
	topK = 4
)

func (c Config) filled() Config {
	if c.Cooldown <= 0 {
		c.Cooldown = 2
	}
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = 2
	}
	if c.LogSize <= 0 {
		c.LogSize = 64
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Decision records one executed placement action.
type Decision struct {
	Round  int
	View   string
	Action string // "migrate", "replicate", "drop", "evict"
	From   netsim.PeerID
	To     netsim.PeerID
	// GainPerRound is the projected per-round cost saving the action
	// was taken for (cost-model units); OneTime the projected one-off
	// cost it had to amortize.
	GainPerRound float64
	OneTime      float64
	Reason       string
}

func (d Decision) String() string {
	switch d.Action {
	case "migrate":
		return fmt.Sprintf("r%d %s %s %s→%s (gain/round %.1f, move %.1f)",
			d.Round, d.Action, d.View, d.From, d.To, d.GainPerRound, d.OneTime)
	case "replicate":
		return fmt.Sprintf("r%d %s %s +%s (gain/round %.1f, ship %.1f)",
			d.Round, d.Action, d.View, d.To, d.GainPerRound, d.OneTime)
	default:
		return fmt.Sprintf("r%d %s %s -%s (%s)", d.Round, d.Action, d.View, d.From, d.Reason)
	}
}

// Deployment is what a placement round runs over: somewhere views are
// placed, can be observed, and can be moved.
type Deployment interface {
	// Observe reports the deployment as of now. It fails open: what
	// cannot be observed is left out or stands in aged, never an error
	// that would wedge the round.
	Observe(ctx context.Context) Observation
	// Apply executes one decision. The controller holds no data lock
	// across it — migrate and replicate ship the view's bytes over the
	// network, and the receiving side must be free to call back in.
	Apply(ctx context.Context, d Decision) error
	// Placements lists the view copies the deployment holds, for
	// PLACEMENTS.
	Placements() []view.PlacementInfo
}

// Observation is one round's input: a ViewLoad per placed view (the
// controller owns and updates them for the rest of the round), and the
// link model and liveness the round's Scorer is built from.
type Observation struct {
	Views []ViewLoad
	Link  func(from, to netsim.PeerID) netsim.Link
	Alive func(netsim.PeerID) bool
}

// Controller runs placement rounds over one Deployment. It is
// deliberately synchronous: Step runs one observe→decide→act round
// when called, so deployments choose their own cadence (a ticker in
// cmd/axmlpeer, an x:step call, one call per workload round in the
// benchmarks) and tests stay deterministic.
type Controller struct {
	dep Deployment
	obs *Observer // the in-process deployment's; nil otherwise
	cfg Config

	// stepMu serializes rounds (x:step may arrive on several connections
	// beside the ticker) and guards round and cool; no Deployment
	// method ever takes it.
	stepMu sync.Mutex
	round  int
	cool   map[string]int // view → rounds left to rest; absent when none

	mu  sync.Mutex // guards log
	log []Decision
}

// NewOver creates a controller over a deployment other than the
// in-process one New builds.
func NewOver(dep Deployment, cfg Config) *Controller {
	return &Controller{dep: dep, cfg: cfg.filled(), cool: map[string]int{}}
}

// Observer returns the traffic observer feeding an in-process
// controller (nil for one made by NewOver).
func (c *Controller) Observer() *Observer { return c.obs }

// Placements lists the view copies of the deployment the controller
// runs over.
func (c *Controller) Placements() []view.PlacementInfo { return c.dep.Placements() }

// Decisions returns the retained decision log, oldest first.
func (c *Controller) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Decision(nil), c.log...)
}

// Step runs one round: observe, plan at most one action per view that
// is not resting, actuate, then evict from every peer the round left
// over its byte budget. It returns the actions executed and the joined
// errors of those that failed; a failed action neither rests its view
// nor enters the log, and never stops the others.
func (c *Controller) Step(ctx context.Context) ([]Decision, error) {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()
	c.round++
	round := c.round
	tr := obs.NewTrace(fmt.Sprintf("placement-round-%d", round))
	ctx = obs.WithTrace(ctx, tr)

	octx, sp := obs.StartSpan(ctx, "observe", "")
	seen := c.dep.Observe(octx)
	sp.End()

	_, sp = obs.StartSpan(ctx, "plan", "")
	views := make([]*ViewLoad, len(seen.Views))
	byName := make(map[string]*ViewLoad, len(views))
	for i := range seen.Views {
		v := &seen.Views[i]
		for _, b := range v.SiteBytes {
			v.Bytes = max(v.Bytes, b)
		}
		views[i], byName[v.Name] = v, v
	}
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	scorer := NewScorer(c.cfg, seen.Link, seen.Alive)
	// Every view is planned against the usage observed, not against the
	// moves planned before it: two views sent to one peer in one round
	// are caught by the budget check below.
	use := usage(views)
	var planned []Decision
	for _, v := range views {
		if c.cool[v.Name] > 0 {
			continue
		}
		if d := scorer.Plan(round, c.priced(v, v.Bytes, use)); d != nil {
			planned = append(planned, *d)
		}
	}
	sp.End()
	for name, n := range c.cool {
		if n <= 1 {
			delete(c.cool, name)
		} else {
			c.cool[name] = n - 1
		}
	}

	var made []Decision
	var errs []error
	act := func(d Decision) bool {
		actx, sp := obs.StartSpan(ctx, "actuate", d.String())
		defer sp.End()
		if err := c.dep.Apply(actx, d); err != nil {
			sp.Fail(err)
			errs = append(errs, fmt.Errorf("%s %q: %w", d.Action, d.View, err))
			return false
		}
		byName[d.View].landed(d)
		made = append(made, d)
		return true
	}
	for _, d := range planned {
		if act(d) {
			c.cool[d.View] = c.cfg.Cooldown
		}
	}
	// Budgets, against the picture the actions above left — no second
	// Observe, which would decay the demand twice. A peer whose
	// eviction failed is left alone until the next round.
	failed := map[netsim.PeerID]bool{}
	for {
		d, ok := c.nextEviction(round, scorer, views, failed)
		if !ok {
			break
		}
		if !act(d) {
			failed[d.From] = true
		}
	}

	c.mu.Lock()
	c.log = append(c.log, made...)
	if over := len(c.log) - c.cfg.LogSize; over > 0 {
		c.log = append([]Decision(nil), c.log[over:]...)
	}
	c.mu.Unlock()
	err := errors.Join(errs...)
	c.record(round, len(views), made, err)
	c.cfg.Metrics.RecordTrace(tr)
	return made, err
}

// record emits the round's telemetry: one structured log record per
// executed action, a per-round debug summary, and registry counters.
func (c *Controller) record(round, views int, made []Decision, err error) {
	for _, d := range made {
		c.cfg.Logger.Info("placement action",
			"round", d.Round, "action", d.Action, "view", d.View,
			"from", string(d.From), "to", string(d.To),
			"gain_per_round", d.GainPerRound, "one_time", d.OneTime,
			"reason", d.Reason)
		c.cfg.Metrics.Counter("placement.actions." + d.Action).Inc()
	}
	c.cfg.Logger.Debug("placement round", "round", round, "actions", len(made), "views", views)
	c.cfg.Metrics.Counter("placement.rounds").Inc()
	if err != nil {
		c.cfg.Logger.Warn("placement round errors", "round", round, "err", err)
		c.cfg.Metrics.Counter("placement.errors").Inc()
	}
}

// priced completes a deployment-supplied load for the scorer: the copy
// size to price (the largest copy when planning, the victim's own when
// evicting), the per-query transfer that size implies, and the budget
// picture move targets are filtered against.
func (c *Controller) priced(v *ViewLoad, bytes int64, use map[netsim.PeerID]int64) ViewLoad {
	out := *v
	out.Bytes = bytes
	out.PerQuery = PerQueryBytes(bytes, v.Loads)
	out.Usage = use
	out.Budget = c.budgetFor
	return out
}

// usage sums the view bytes placed per peer.
func usage(views []*ViewLoad) map[netsim.PeerID]int64 {
	use := map[netsim.PeerID]int64{}
	for _, v := range views {
		for p, b := range v.SiteBytes {
			use[p] += b
		}
	}
	return use
}

// landed moves the round's picture of the view to where an executed
// decision left it.
func (v *ViewLoad) landed(d Decision) {
	switch d.Action {
	case "migrate":
		bytes := v.SiteBytes[d.From]
		v.unplace(d.From)
		v.Sites = append(v.Sites, d.To)
		v.SiteBytes[d.To] = bytes
	case "replicate":
		v.Sites = append(v.Sites, d.To)
		v.SiteBytes[d.To] = v.Bytes
	default: // drop, evict
		v.unplace(d.From)
	}
}

func (v *ViewLoad) unplace(at netsim.PeerID) {
	delete(v.SiteBytes, at)
	for i, site := range v.Sites {
		if site == at {
			v.Sites = append(v.Sites[:i:i], v.Sites[i+1:]...)
			return
		}
	}
}

func (c *Controller) budgetFor(p netsim.PeerID) int64 {
	if b, ok := c.cfg.Budgets[p]; ok {
		return b
	}
	return c.cfg.DefaultBudget
}

// nextEviction picks the next copy to evict: at the first peer (in ID
// order, skipping those in skip) holding more view bytes than its
// budget, the copy with the lowest benefit per byte — the
// demand-weighted serving-cost increase its removal would cause,
// priced on that copy's own size, relative to the bytes it frees.
// Evicting the last copy of a view drops the view (queries fall back
// to the base — correct, just slower), which is exactly what a hard
// storage limit means.
func (c *Controller) nextEviction(round int, s *Scorer, views []*ViewLoad,
	skip map[netsim.PeerID]bool) (Decision, bool) {
	var peer netsim.PeerID
	for p, used := range usage(views) {
		if b := c.budgetFor(p); b > 0 && used > b && !skip[p] && (peer == "" || p < peer) {
			peer = p
		}
	}
	if peer == "" {
		return Decision{}, false
	}
	var victim *ViewLoad
	lowest := 0.0
	for _, v := range views {
		bytes := v.SiteBytes[peer]
		if bytes <= 0 {
			continue
		}
		score := s.EvictionBenefit(c.priced(v, bytes, nil), peer) / float64(bytes)
		if victim == nil || score < lowest {
			victim, lowest = v, score
		}
	}
	return Decision{
		Round: round, View: victim.Name, Action: "evict", From: peer,
		Reason: fmt.Sprintf("budget %d bytes exceeded at %s", c.budgetFor(peer), peer),
	}, true
}
