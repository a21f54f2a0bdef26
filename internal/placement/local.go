package placement

import (
	"context"
	"fmt"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/opt"
	"axml/internal/view"
)

// local is the in-process Deployment: views placed across the
// simulated peers of one core.System, demand from an Observer the
// system's sessions feed, moves through view.Manager's placement
// surgery.
type local struct {
	sys   *core.System
	views *view.Manager
	obs   *Observer
}

// New creates a controller over the manager's system. Wire the
// returned controller's Observer() into the sessions whose traffic
// should drive placement (session.WithTrafficSink).
func New(views *view.Manager, cfg Config) *Controller {
	l := &local{sys: views.System(), views: views, obs: NewObserver()}
	c := NewOver(l, cfg)
	c.obs = l.obs
	return c
}

// Observe samples the network's maintenance traffic, reads each placed
// view's demand off the observer, and ages the demand window — like a
// federation member answering DEMAND, it exports and decays.
func (l *local) Observe(context.Context) Observation {
	l.obs.SampleNetwork(l.sys.Net.Stats())
	loads := map[string]LoadExport{}
	for _, le := range l.obs.Loads(opt.NewEstimator(l.sys)) {
		loads[le.Doc] = le
	}
	var out []ViewLoad
	at := map[string]int{}
	for _, pi := range l.views.Placements() {
		i, ok := at[pi.View]
		if !ok {
			i = len(out)
			at[pi.View] = i
			doc := view.DocPrefix + pi.View
			base, _ := l.views.BaseOf(pi.View)
			v := ViewLoad{Name: pi.View, Base: base,
				SiteBytes: map[netsim.PeerID]int64{}, Demand: l.obs.Demand(doc)}
			if le, ok := loads[doc]; ok {
				v.Loads = []LoadExport{le}
			}
			out = append(out, v)
		}
		v := &out[i]
		v.Sites = append(v.Sites, pi.At)
		v.SiteBytes[pi.At] = pi.Bytes
		v.MaintRate = max(v.MaintRate, l.obs.ShipRate(v.Base, pi.At))
	}
	l.obs.Decay(demandDecay)
	return Observation{Views: out, Link: l.sys.Net.LinkInfo, Alive: func(p netsim.PeerID) bool {
		_, ok := l.sys.Peer(p)
		return ok
	}}
}

// Apply executes a decision through the view manager.
func (l *local) Apply(ctx context.Context, d Decision) error {
	switch d.Action {
	case "migrate":
		return l.views.Migrate(ctx, d.View, d.From, d.To)
	case "replicate":
		return l.views.AddPlacement(d.View, d.To)
	case "drop", "evict":
		return l.views.DropPlacement(d.View, d.From)
	}
	return fmt.Errorf("placement: unknown action %q", d.Action)
}
