package opt

import (
	"container/heap"
	"fmt"
	"math"
	"strings"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/rewrite"
)

// Options configures the plan search.
type Options struct {
	// Rules is the rewrite rule set (DefaultRules when nil). Ablation
	// experiments pass subsets.
	Rules []rewrite.Rule
	// ExtraRules are appended to Rules: site-specific rewrites that
	// depend on system state beyond the algebra, such as the
	// materialized-view rule of internal/view. They participate in the
	// same plan search, so "read view@local" competes with "ship from
	// base@remote" under the one cost model.
	ExtraRules []rewrite.Rule
}

// The search's bounds: rule applications along one derivation, and
// plans explored in all.
const (
	maxDepth = 4
	maxPlans = 512
)

func (o *Options) fill() {
	if o.Rules == nil {
		o.Rules = rewrite.DefaultRules()
	}
	if len(o.ExtraRules) > 0 {
		o.Rules = append(append([]rewrite.Rule{}, o.Rules...), o.ExtraRules...)
	}
}

// Plan is an optimized expression with its predicted cost and the
// derivation that produced it.
type Plan struct {
	Expr       core.Expr
	Est        Estimate
	Cost       float64
	Derivation []string // "rule @ position" steps from the original
}

// String renders a one-line plan summary.
func (p *Plan) String() string {
	return fmt.Sprintf("cost=%.2f bytes=%.0f msgs=%.0f time=%.2fms via [%s]: %s",
		p.Cost, p.Est.Bytes, p.Est.Messages, p.Est.TimeMs,
		strings.Join(p.Derivation, "; "), p.Expr.String())
}

// Optimize searches for the cheapest plan equivalent to e (under the
// rule set) when evaluated at peer at. It returns the best plan and
// the number of plans explored.
//
// Candidates are told apart by structure (memo.key) after settle has
// dropped the delegations that change nothing, and one estimator prices
// them all, so a sub-plan shared by many candidates is costed once.
func Optimize(sys *core.System, at netsim.PeerID, e core.Expr, opts Options) (*Plan, int, error) {
	return NewEstimator(sys).optimize(at, e, opts)
}

func (es *Estimator) optimize(at netsim.PeerID, e core.Expr, opts Options) (*Plan, int, error) {
	opts.fill()
	ctx := &rewrite.Context{Sys: es.Sys, At: at}

	baseEst, baseErr := es.Estimate(at, e)
	baseCost := math.Inf(1)
	if baseErr == nil {
		baseCost = baseEst.Total(DefaultWeights)
	}
	// An inestimable original is not immediately fatal: the expression
	// may read a document no local peer hosts while a rewrite onto a
	// materialized copy (e.g. a view adopted from another deployment)
	// is perfectly answerable. Seed the search with an infinite-cost
	// start node; only if no alternative estimates either does the
	// original error stand.
	start := &node{expr: e, cost: baseCost, est: baseEst}
	best := start

	seen := map[string]bool{es.memo.key(e): true}
	pq := &nodeHeap{start}
	explored := 0
	for pq.Len() > 0 && explored < maxPlans {
		cur := heap.Pop(pq).(*node)
		explored++
		if cur.cost < best.cost {
			best = cur
		}
		if cur.depth >= maxDepth {
			continue
		}
		for _, d := range rewrite.Alternatives(cur.expr, ctx, opts.Rules) {
			d.E = settle(d.E, at)
			key := es.memo.key(d.E)
			if seen[key] {
				continue
			}
			seen[key] = true
			de, err := es.Estimate(at, d.E)
			if err != nil {
				// Some alternatives may be inestimable (e.g. missing
				// stats); skip rather than fail the search.
				continue
			}
			heap.Push(pq, &node{
				expr:  d.E,
				deriv: append(append([]string{}, cur.deriv...), d.Rule+" @ "+d.Pos),
				depth: cur.depth + 1,
				cost:  de.Total(DefaultWeights),
				est:   de,
			})
		}
	}
	if best == start && baseErr != nil {
		return nil, explored, fmt.Errorf("opt: estimating original plan: %w", baseErr)
	}
	return &Plan{
		Expr:       best.expr,
		Est:        best.est,
		Cost:       best.cost,
		Derivation: best.deriv,
	}, explored, nil
}

// node is one explored plan in the search frontier.
type node struct {
	expr  core.Expr
	deriv []string
	depth int
	cost  float64
	est   Estimate
}

type nodeHeap []*node

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].cost < h[j].cost }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// settle drops every delegation to the site already evaluating it:
// eval@p(e) evaluated at p is e — the evaluator and the estimator treat
// it so — and keeping both forms only explores one plan twice. It copies
// the constructors above a dropped delegation and shares the rest.
func settle(e core.Expr, at netsim.PeerID) core.Expr {
	switch v := e.(type) {
	case *core.EvalAt:
		if v.At == at {
			return settle(v.E, at)
		}
		if inner := settle(v.E, v.At); inner != v.E {
			return &core.EvalAt{At: v.At, E: inner}
		}
	case *core.Query:
		if args, changed := settleAll(v.Args, at); changed {
			c := *v
			c.Args = args
			return &c
		}
	case *core.ServiceCall:
		if params, changed := settleAll(v.Params, at); changed {
			c := *v
			c.Params = params
			return &c
		}
	case *core.Send:
		if p := settle(v.Payload, at); p != v.Payload {
			return &core.Send{Dest: v.Dest, Payload: p}
		}
	case *core.Relay:
		if p := settle(v.Payload, at); p != v.Payload {
			return &core.Relay{Via: v.Via, Dest: v.Dest, Payload: p}
		}
	}
	return e
}

func settleAll(es []core.Expr, at netsim.PeerID) ([]core.Expr, bool) {
	var out []core.Expr
	for i, e := range es {
		if s := settle(e, at); s != e {
			if out == nil {
				out = append([]core.Expr{}, es...)
			}
			out[i] = s
		}
	}
	return out, out != nil
}
