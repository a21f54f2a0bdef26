// The benefit/cost scorer. Every quantity is expressed in the
// optimizer's scalar cost units (opt.Weights over bytes, messages and
// virtual milliseconds), computed with the same per-link latency/
// bandwidth model (netsim.LinkInfo) and the same output-cardinality
// estimates (opt.Estimator.QuerySelectivity) the plan search prices
// plans with — the controller and the optimizer can disagree about
// traffic, but never about what a transfer costs.
//
// The model lives in an exported Scorer decoupled from core.System so
// one Controller prices moves with exactly the same math in every
// Deployment: the link model is a callback and everything about one
// view's situation arrives as a ViewLoad.

package placement

import (
	"fmt"
	"sort"

	"axml/internal/netsim"
)

// envelope mirrors netsim's per-message framing overhead (and the
// estimator's constant of the same name).
const envelope = 64

// Scorer values candidate placement actions for one view: the
// per-round cost of serving the observed demand from a placement set,
// the per-round cost of keeping each replica fresh, and the one-time
// cost of a move. Construct with NewScorer.
type Scorer struct {
	cfg     Config
	link    func(from, to netsim.PeerID) netsim.Link
	hasPeer func(netsim.PeerID) bool
}

// NewScorer builds a scorer with the config's defaults filled in.
// link supplies the from→to transfer model (nil prices every remote
// hop with the zero link: bytes and messages only, no latency term);
// hasPeer reports whether a consumer is a viable placement target
// (nil admits every consumer the demand names).
func NewScorer(cfg Config, link func(from, to netsim.PeerID) netsim.Link,
	hasPeer func(netsim.PeerID) bool) *Scorer {
	return &Scorer{cfg: cfg.filled(), link: link, hasPeer: hasPeer}
}

// ViewLoad is everything the scorer needs to price one view's
// placement: where it is, how big it is, who reads it how often, and
// what keeping a copy fresh costs. A Deployment supplies the first
// group of fields from what it observed; Controller.Step fills the
// second before the scorer sees the load.
type ViewLoad struct {
	Name  string
	Base  netsim.PeerID // peer hosting the primary base document ("" = unknown)
	Sites []netsim.PeerID
	// SiteBytes is the size of the copy at each site.
	SiteBytes map[netsim.PeerID]int64
	// Demand is the decayed per-consumer query weight against the view.
	Demand map[netsim.PeerID]float64
	// Loads is that demand split by query shape, with selectivities
	// estimated where the data lives.
	Loads []LoadExport
	// MaintRate is the observed maintenance volume (bytes per round)
	// toward any current placement; 0 falls back to churnFrac × Bytes.
	MaintRate float64

	// Bytes is the copy size being priced.
	Bytes int64
	// PerQuery estimates the bytes one query ships from a placement to
	// its consumer (PerQueryBytes of Bytes and Loads).
	PerQuery float64
	// Usage is the current view bytes placed per peer, for budget
	// filtering of move targets.
	Usage map[netsim.PeerID]int64
	// Budget returns a peer's byte budget (0 = unlimited); nil means
	// unlimited everywhere.
	Budget func(netsim.PeerID) int64
}

// xfer prices one message of size bytes over from→to, mirroring
// opt.Estimator.transfer scalarized with the configured weights.
// Local delivery is free, like in the evaluator.
func (s *Scorer) xfer(from, to netsim.PeerID, bytes float64) float64 {
	if from == "" || to == "" || from == to {
		return 0
	}
	var l netsim.Link
	if s.link != nil {
		l = s.link(from, to)
	}
	t := l.LatencyMs
	if l.BytesPerMs > 0 {
		t += (bytes + envelope) / l.BytesPerMs
	}
	w := s.cfg.Weights
	return w.PerByte*(bytes+envelope) + w.PerMessage + w.PerMs*t
}

// ServeCost is the per-round cost of answering the observed demand
// from the given serving sites: each consumer reads from its cheapest
// site.
func (s *Scorer) ServeCost(demand map[netsim.PeerID]float64, sites []netsim.PeerID, perQ float64) float64 {
	total := 0.0
	for consumer, weight := range demand {
		best := -1.0
		for _, site := range sites {
			cost := s.xfer(site, consumer, perQ)
			if best < 0 || cost < best {
				best = cost
			}
		}
		if best < 0 {
			continue
		}
		total += weight * best
	}
	return total
}

// rate is the per-round maintenance volume for one copy of the view:
// the observed rate when there is one, else churnFrac of the view
// size.
func (s *Scorer) rate(v ViewLoad) float64 {
	if v.MaintRate > 0 {
		return v.MaintRate
	}
	return churnFrac * float64(v.Bytes)
}

// maintCost prices keeping a copy at `at` fresh from the base over the
// base→at link.
func (s *Scorer) maintCost(base, at netsim.PeerID, rate float64) float64 {
	if base == "" || base == at {
		return 0
	}
	return s.xfer(base, at, rate)
}

// EvictionBenefit is the per-round serving-cost increase of removing
// the copy at victim, net of the maintenance it saves — with the base
// peer as the implicit fallback site, so losing the last copy is
// priced against serving straight from the base rather than as
// infinite.
func (s *Scorer) EvictionBenefit(v ViewLoad, victim netsim.PeerID) float64 {
	with := append([]netsim.PeerID{}, v.Sites...)
	without := make([]netsim.PeerID, 0, len(v.Sites))
	for _, site := range v.Sites {
		if site != victim {
			without = append(without, site)
		}
	}
	if v.Base != "" {
		with = append(with, v.Base)
		without = append(without, v.Base)
	}
	benefit := s.ServeCost(v.Demand, without, v.PerQuery) - s.ServeCost(v.Demand, with, v.PerQuery)
	benefit -= s.maintCost(v.Base, victim, s.rate(v))
	if benefit < 0 {
		benefit = 0
	}
	return benefit
}

// topConsumers sorts the demand's consumers highest weight first (peer
// order as the deterministic tie-break).
func topConsumers(demand map[netsim.PeerID]float64) []netsim.PeerID {
	out := make([]netsim.PeerID, 0, len(demand))
	for p := range demand {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if demand[out[i]] != demand[out[j]] {
			return demand[out[i]] > demand[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Plan scores the candidate actions for one view and returns the best
// one when it clears the hysteresis margin, without executing it — the
// caller actuates separately, because migrate/replicate ship the
// view's bytes over the network. At most one action per view per
// round keeps every move attributable and the system analyzable for
// convergence. v.Usage (current view bytes per peer) filters
// candidates up front: a peer whose budget cannot hold the view is
// never a move target — without this, a tight budget would plan the
// ship here and evict it in budget enforcement every round.
func (s *Scorer) Plan(round int, v ViewLoad) *Decision {
	if len(v.Demand) == 0 {
		return nil
	}
	rate := s.rate(v)
	cur := s.ServeCost(v.Demand, v.Sites, v.PerQuery)
	curMaint := 0.0
	for _, site := range v.Sites {
		curMaint += s.maintCost(v.Base, site, rate)
	}

	type candidate struct {
		action   string
		from, to netsim.PeerID
		gain     float64 // net per-round gain, move cost amortized in
		oneTime  float64
	}
	var best *candidate
	consider := func(cand candidate) {
		if best == nil || cand.gain > best.gain {
			b := cand
			best = &b
		}
	}

	hot := topConsumers(v.Demand)
	if len(hot) > topK {
		hot = hot[:topK]
	}
	placedAt := map[netsim.PeerID]bool{}
	for _, site := range v.Sites {
		placedAt[site] = true
	}
	for _, consumer := range hot {
		if placedAt[consumer] {
			continue
		}
		if s.hasPeer != nil && !s.hasPeer(consumer) {
			continue
		}
		if v.Budget != nil {
			if b := v.Budget(consumer); b > 0 && v.Usage[consumer]+v.Bytes > b {
				continue // the target could not keep the copy anyway
			}
		}
		newMaint := s.maintCost(v.Base, consumer, rate)
		// Replicate: one more copy, one more maintenance stream.
		if len(v.Sites) < s.cfg.MaxReplicas {
			oneTime := s.xfer(v.Base, consumer, float64(v.Bytes))
			gain := cur - s.ServeCost(v.Demand, append(append([]netsim.PeerID{}, v.Sites...), consumer), v.PerQuery) -
				newMaint - oneTime/horizonRounds
			consider(candidate{action: "replicate", to: consumer, gain: gain, oneTime: oneTime})
		}
		// Migrate: swap each existing copy for one at the consumer.
		for _, from := range v.Sites {
			moved := make([]netsim.PeerID, 0, len(v.Sites))
			for _, site := range v.Sites {
				if site != from {
					moved = append(moved, site)
				}
			}
			moved = append(moved, consumer)
			oneTime := s.xfer(from, consumer, float64(v.Bytes))
			gain := cur - s.ServeCost(v.Demand, moved, v.PerQuery) +
				s.maintCost(v.Base, from, rate) - newMaint -
				oneTime/horizonRounds
			consider(candidate{action: "migrate", from: from, to: consumer, gain: gain, oneTime: oneTime})
		}
	}
	// Drop a replica whose maintenance outweighs its serving benefit.
	if len(v.Sites) > 1 {
		for _, from := range v.Sites {
			rest := make([]netsim.PeerID, 0, len(v.Sites)-1)
			for _, site := range v.Sites {
				if site != from {
					rest = append(rest, site)
				}
			}
			gain := s.maintCost(v.Base, from, rate) -
				(s.ServeCost(v.Demand, rest, v.PerQuery) - cur)
			consider(candidate{action: "drop", from: from, gain: gain})
		}
	}

	if best == nil || best.gain <= minGainFrac*(cur+curMaint)+1e-9 {
		return nil
	}
	return &Decision{
		Round: round, View: v.Name, Action: best.action,
		From: best.from, To: best.to,
		GainPerRound: best.gain, OneTime: best.oneTime,
		Reason: fmt.Sprintf("demand-weighted serve cost %.1f/round", cur),
	}
}
