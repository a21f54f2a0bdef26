// Package rewrite implements the equivalence rules of the paper's
// §3.3 as syntactic rewrites over core expressions:
//
//	(10) query delegation        — Delegate
//	(11) query decomposition     — SelectionPushdown (the Example 1
//	                               shape, via xquery.Decompose)
//	(12) transfer re-routing     — RouteIntro
//	(13) transfer sharing        — ShareTransfer
//	(14) evaluation delegation   — Delegate (general form)
//	(15) sc location independence— ScRelocate
//	(16) pushing queries over
//	     service calls           — PushOverCall
//
// The paper states each rule as an equivalence; each is read here only
// in the direction that moves work or data, and no rule undoes
// another. The plan search needs no inverse: its frontier keeps every
// plan it has seen, the original included, so undoing a step could only
// reach a plan already priced, and opt's settle drops a delegation to
// the site that already evaluates it.
//
// Each rule is sound: applying it anywhere in an expression preserves
// the evaluation result and the final system state (property-tested in
// rules_test.go). The rules differ only in cost, which is what the opt
// package searches over.
package rewrite

import (
	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/xquery"
)

// Context gives rules access to system metadata: peer and document
// placement, service visibility (declarative bodies), and the generics
// catalog. Rules read metadata only — they never mutate the system.
type Context struct {
	Sys *core.System
	// At is the site evaluating the root expression.
	At netsim.PeerID
}

// peersWithDocument lists peers hosting a document with the given name.
func (c *Context) peersWithDocument(name string) []netsim.PeerID {
	var out []netsim.PeerID
	for _, id := range c.Sys.Peers() {
		p, ok := c.Sys.Peer(id)
		if !ok {
			continue
		}
		if p.HasDocument(name) {
			out = append(out, id)
		}
	}
	return out
}

// Rule is one equivalence rule, applied at the root of an expression.
type Rule interface {
	// Name identifies the rule in plans and traces.
	Name() string
	// Apply returns the alternative forms of e when the rule matches
	// at e's root; nil when it does not. at is the peer evaluating e.
	Apply(e core.Expr, at netsim.PeerID, ctx *Context) []core.Expr
}

// Delegate implements rules (10) and (14): evaluating an expression is
// equivalent to shipping it to another peer, evaluating there, and
// shipping the result back. Candidates are all other peers; the cost
// model decides which (if any) pays off.
type Delegate struct{}

func (Delegate) Name() string { return "delegate(10/14)" }

func (Delegate) Apply(e core.Expr, at netsim.PeerID, ctx *Context) []core.Expr {
	switch e.(type) {
	case *core.Query:
		// Only queries are worth delegating wholesale; delegating data
		// expressions just adds a round trip.
	default:
		return nil
	}
	var out []core.Expr
	for _, p := range ctx.Sys.Peers() {
		if p == at {
			continue
		}
		out = append(out, &core.EvalAt{At: p, E: retargetQuery(core.Clone(e), p)})
	}
	return out
}

// retargetQuery re-homes a top-level query to the delegation target:
// the query text travels inside the shipped plan (the sendp1→p2(q) of
// rule (10) is the plan transfer), so the target must not fetch it
// again from the original site.
func retargetQuery(e core.Expr, target netsim.PeerID) core.Expr {
	if q, ok := e.(*core.Query); ok {
		q.At = target
	}
	return e
}

// paramHome is the peer a service-call parameter's data is pinned to,
// or "" when the parameter can be evaluated anywhere.
func paramHome(e core.Expr) netsim.PeerID {
	switch v := e.(type) {
	case *core.Tree:
		return v.At
	case *core.Doc:
		if v.At == core.AnyPeer {
			return ""
		}
		return v.At
	case *core.QueryVal:
		return v.At
	default:
		return ""
	}
}

// SelectionPushdown implements Example 1 (rules (11)+(10) composed): a
// query over a remote document is decomposed into a selection shipped
// to the data peer and a residual query over the (smaller) result.
type SelectionPushdown struct{}

func (SelectionPushdown) Name() string { return "pushSelection(11)" }

func (SelectionPushdown) Apply(e core.Expr, at netsim.PeerID, ctx *Context) []core.Expr {
	q, ok := e.(*core.Query)
	if !ok || len(q.Args) != 0 {
		return nil
	}
	dec, ok := xquery.Decompose(q.Q)
	if !ok {
		return nil
	}
	var out []core.Expr
	for _, pd := range ctx.peersWithDocument(dec.Doc) {
		if pd == at {
			continue // local data: nothing to push
		}
		out = append(out, &core.Query{
			Q:  dec.Local,
			At: at,
			Args: []core.Expr{
				&core.EvalAt{At: pd, E: &core.Query{Q: dec.Remote, At: pd}},
			},
		})
	}
	return out
}

// RouteIntro implements rule (12) read right-to-left: data in transit
// may make an intermediary stop at another peer.
type RouteIntro struct{}

func (RouteIntro) Name() string { return "routeIntro(12)" }

func (RouteIntro) Apply(e core.Expr, at netsim.PeerID, ctx *Context) []core.Expr {
	var dest core.Dest
	var payload core.Expr
	var via []netsim.PeerID
	switch v := e.(type) {
	case *core.Send:
		dest, payload = v.Dest, v.Payload
	case *core.Relay:
		dest, payload, via = v.Dest, v.Payload, v.Via
	default:
		return nil
	}
	if _, isDoc := dest.(core.DestDoc); isDoc {
		return nil
	}
	var out []core.Expr
	for _, p := range ctx.Sys.Peers() {
		if p == at || containsPeer(via, p) || destIsPeer(dest, p) {
			continue
		}
		newVia := append(append([]netsim.PeerID{}, via...), p)
		out = append(out, &core.Relay{Via: newVia, Dest: cloneDestP(dest), Payload: core.Clone(payload)})
	}
	return out
}

func containsPeer(via []netsim.PeerID, p netsim.PeerID) bool {
	for _, v := range via {
		if v == p {
			return true
		}
	}
	return false
}

func destIsPeer(d core.Dest, p netsim.PeerID) bool {
	dp, ok := d.(core.DestPeer)
	return ok && dp.P == p
}

func cloneDestP(d core.Dest) core.Dest {
	switch v := d.(type) {
	case core.DestNodes:
		out := core.DestNodes{}
		out.Refs = append(out.Refs, v.Refs...)
		return out
	default:
		return d
	}
}

// ShareTransfer implements rule (13): when a query's argument list
// contains structurally identical remote fetches, fetch once and reuse.
type ShareTransfer struct{}

func (ShareTransfer) Name() string { return "shareTransfer(13)" }

func (ShareTransfer) Apply(e core.Expr, at netsim.PeerID, ctx *Context) []core.Expr {
	q, ok := e.(*core.Query)
	if !ok || q.ShareArgs || len(q.Args) < 2 {
		return nil
	}
	seen := map[string]bool{}
	dup := false
	for _, a := range q.Args {
		key := string(core.SerializeExpr(a))
		if seen[key] {
			dup = true
			break
		}
		seen[key] = true
	}
	if !dup {
		return nil
	}
	c := core.Clone(q).(*core.Query)
	c.ShareArgs = true
	return []core.Expr{c}
}

// ScRelocate implements rule (15): a service call whose results go to
// explicit forward targets can be activated from any peer — in
// particular from the provider itself, saving the caller→provider
// parameter hop when parameters are small or absent.
type ScRelocate struct{}

func (ScRelocate) Name() string { return "scRelocate(15)" }

func (ScRelocate) Apply(e core.Expr, at netsim.PeerID, ctx *Context) []core.Expr {
	sc, ok := e.(*core.ServiceCall)
	if !ok || len(sc.Forward) == 0 || sc.Provider == core.AnyPeer {
		return nil
	}
	// Parameters must be relocatable: they are re-evaluated at the new
	// site, so they must not be trees pinned to the current site
	// (those would need explicit sends, a different plan).
	for _, p := range sc.Params {
		if h := paramHome(p); h != "" && h != sc.Provider {
			return nil
		}
	}
	if sc.Provider == at {
		return nil
	}
	return []core.Expr{&core.EvalAt{At: sc.Provider, E: core.Clone(sc)}}
}

// PushOverCall implements rule (16): a query over the results of a
// call to a *declarative* service is pushed to the provider, which
// evaluates the query directly over the service's defining query.
type PushOverCall struct{}

func (PushOverCall) Name() string { return "pushOverCall(16)" }

func (PushOverCall) Apply(e core.Expr, at netsim.PeerID, ctx *Context) []core.Expr {
	q, ok := e.(*core.Query)
	if !ok || len(q.Args) != 1 {
		return nil
	}
	sc, ok := q.Args[0].(*core.ServiceCall)
	if !ok || sc.Provider == core.AnyPeer || sc.Provider == at || len(sc.Forward) != 0 {
		return nil
	}
	// The service must be declarative (its body visible) for the
	// provider to compose the queries.
	p, ok := ctx.Sys.Peer(sc.Provider)
	if !ok {
		return nil
	}
	svc, ok := p.Service(sc.Service)
	if !ok || !svc.Declarative() {
		return nil
	}
	// Parameters are re-evaluated at the provider; pinned local data
	// would change meaning.
	for _, pe := range sc.Params {
		if h := paramHome(pe); h != "" && h != sc.Provider {
			return nil
		}
	}
	return []core.Expr{&core.EvalAt{At: sc.Provider, E: retargetQuery(core.Clone(q), sc.Provider)}}
}

// DefaultRules returns the full rule set in a deterministic order.
func DefaultRules() []Rule {
	return []Rule{
		SelectionPushdown{},
		PushOverCall{},
		ScRelocate{},
		Delegate{},
		ShareTransfer{},
		RouteIntro{},
	}
}
