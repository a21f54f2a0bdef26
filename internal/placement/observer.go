package placement

import (
	"sort"
	"sync"

	"axml/internal/netsim"
	"axml/internal/opt"
	"axml/internal/xquery"
)

// selCacheCap bounds the per-shape selectivity cache: shapes decay out
// of the demand tables but the cache is keyed by the same unbounded
// strings, so it resets beyond this and rebuilds from live shapes.
const selCacheCap = 1024

// Observer aggregates the demand signals the placement controller
// decides from. Two feeds:
//
//   - ObserveQuery implements session.TrafficSink (structurally — this
//     package never imports session): each executed query reports its
//     evaluating peer, normalized shape key and the documents its plan
//     reads, which becomes per-(document, consumer) and per-(document,
//     shape) demand.
//   - SampleNetwork diffs netsim's per-link maintenance traffic (the
//     "ship" kind: view refresh deltas, data landings) between calls,
//     so the scorer can price what a replica costs to keep fresh from
//     what it actually cost recently rather than from a guess.
//
// Demand decays exponentially between controller rounds (Decay), so
// the controller follows traffic shifts instead of the whole history.
type Observer struct {
	mu sync.Mutex
	// demand: doc → consumer peer → decayed query count.
	demand map[string]map[netsim.PeerID]float64
	// shapes: doc → normalized shape key → decayed query count.
	shapes map[string]map[string]float64
	// shipRate: per-link EWMA of maintenance ("ship") bytes per sample
	// window.
	shipRate map[linkKey]float64
	last     netsim.Stats
	sampled  bool
	// sel: shape key → cached selectivity estimate (see Loads).
	sel map[string]float64
}

type linkKey struct{ from, to netsim.PeerID }

// NewObserver creates an empty observer.
func NewObserver() *Observer {
	return &Observer{
		demand:   map[string]map[netsim.PeerID]float64{},
		shapes:   map[string]map[string]float64{},
		shipRate: map[linkKey]float64{},
		sel:      map[string]float64{},
	}
}

// ObserveQuery records one executed query (session.TrafficSink).
func (o *Observer) ObserveQuery(at netsim.PeerID, shape string, docs []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, doc := range docs {
		byPeer := o.demand[doc]
		if byPeer == nil {
			byPeer = map[netsim.PeerID]float64{}
			o.demand[doc] = byPeer
		}
		byPeer[at]++
		byShape := o.shapes[doc]
		if byShape == nil {
			byShape = map[string]float64{}
			o.shapes[doc] = byShape
		}
		byShape[shape]++
	}
}

// SampleNetwork folds the maintenance volume since the previous sample
// into the per-link rates (EWMA, half-weight to history; links that
// saw none this window decay toward zero). Call it once per controller
// round with the network's current Stats.
func (o *Observer) SampleNetwork(st netsim.Stats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.sampled {
		for k, r := range o.shipRate {
			o.shipRate[k] = r / 2
		}
		for from, m := range st.PerLink {
			for to, ls := range m {
				if d := ls.ByKind["ship"] - o.last.PerLink[from][to].ByKind["ship"]; d > 0 {
					o.shipRate[linkKey{from, to}] += float64(d) / 2
				}
			}
		}
	}
	o.last, o.sampled = st, true
}

// Decay ages the query-demand counters by multiplying them with
// factor (0 forgets everything, 1 keeps the full history); entries
// that decay below noise are dropped.
func (o *Observer) Decay(factor float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	decayMap := func(m map[string]map[netsim.PeerID]float64) {
		for doc, byPeer := range m {
			for p, v := range byPeer {
				if v *= factor; v < 0.01 {
					delete(byPeer, p)
				} else {
					byPeer[p] = v
				}
			}
			if len(byPeer) == 0 {
				delete(m, doc)
			}
		}
	}
	decayMap(o.demand)
	for doc, byShape := range o.shapes {
		for s, v := range byShape {
			if v *= factor; v < 0.01 {
				delete(byShape, s)
			} else {
				byShape[s] = v
			}
		}
		if len(byShape) == 0 {
			delete(o.shapes, doc)
		}
	}
}

// Demand returns the decayed per-consumer query weight of one
// document.
func (o *Observer) Demand(doc string) map[netsim.PeerID]float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := map[netsim.PeerID]float64{}
	for p, v := range o.demand[doc] {
		out[p] = v
	}
	return out
}

// Shapes returns the decayed per-shape query weight of one document.
func (o *Observer) Shapes(doc string) map[string]float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := map[string]float64{}
	for s, v := range o.shapes[doc] {
		out[s] = v
	}
	return out
}

// Loads returns the decayed demand per document, split by query shape
// (both in name order), each shape with its selectivity under the
// optimizer's cardinality model — estimated here, where the data and
// the statistics live, and cached per shape. It is the load half of a
// member's Export and what the in-process deployment prices from.
func (o *Observer) Loads(est *opt.Estimator) []LoadExport {
	o.mu.Lock()
	out := make([]LoadExport, 0, len(o.shapes))
	for doc, byShape := range o.shapes {
		l := LoadExport{Doc: doc, Shapes: make([]ShapeExport, 0, len(byShape))}
		for key, w := range byShape {
			l.Shapes = append(l.Shapes, ShapeExport{Key: key, Weight: w, Sel: o.sel[key]})
		}
		out = append(out, l)
	}
	o.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Doc < out[j].Doc })
	// Shapes not seen before are parsed and estimated outside the lock:
	// ObserveQuery takes it on every query.
	fresh := map[string]float64{}
	for i := range out {
		l := &out[i]
		sort.Slice(l.Shapes, func(a, b int) bool { return l.Shapes[a].Key < l.Shapes[b].Key })
		for j := range l.Shapes {
			sh := &l.Shapes[j]
			l.Weight += sh.Weight
			if sh.Sel > 0 {
				continue
			}
			s, ok := fresh[sh.Key]
			if !ok {
				s = 1
				if q, err := xquery.Parse(sh.Key); err == nil {
					s = est.QuerySelectivity(q)
				}
				fresh[sh.Key] = s
			}
			sh.Sel = s
		}
	}
	if len(fresh) > 0 {
		o.mu.Lock()
		if len(o.sel)+len(fresh) > selCacheCap {
			o.sel = map[string]float64{}
		}
		for key, s := range fresh {
			o.sel[key] = s
		}
		o.mu.Unlock()
	}
	return out
}

// ShipRate returns the recent maintenance-traffic rate (bytes per
// controller round) on the from→to link.
func (o *Observer) ShipRate(from, to netsim.PeerID) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.shipRate[linkKey{from, to}]
}
