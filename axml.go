// Package axml is a Go implementation of the distributed XML data
// management framework of Abiteboul, Manolescu and Taropa (EDBT 2006):
// Active XML documents (XML with embedded service calls), declarative
// Web services defined by queries, an algebra of distributed
// expressions (data/query shipping, delegation, generic documents and
// services), the equivalence rules (10)–(16) of the paper, and a
// cost-based optimizer over them.
//
// # Quick start
//
// Clients talk to a system through a Session — one context-aware call
// that parses, optimizes (view-aware) and evaluates, streaming the
// results:
//
//	sys := axml.NewLocalSystem()
//	client := sys.MustAddPeer("client")
//	data := sys.MustAddPeer("data")
//	_ = data.InstallDocument("catalog", axml.MustParseXML(`<catalog>…</catalog>`))
//
//	sess := sys.MustSession("client")
//	rows, err := sess.Query(ctx, `for $i in doc("catalog")/item
//	                              where $i/price < 100 return $i/name`)
//	for rows.Next() {
//	    fmt.Println(axml.SerializeXML(rows.Node()))
//	}
//	err = rows.Err()
//
// The same interface speaks to a remote peer (cmd/axmlpeer) over TCP —
// axml.Dial(addr) returns a Session whose rows stream off the wire and
// whose errors carry the same kinds (ErrCanceled, ErrNoSuchDoc,
// ErrPeerDown, …) as local evaluation.
//
// Plans are cached per session: a text seen before runs its plan unparsed,
// a new text is parsed and keyed by its shape, so repeats and Prepare'd
// statements skip the optimizer search. Deadlines propagate: a canceled
// context stops delegated work and remote ships mid-plan (ErrCanceled).
//
//	stmt, _ := sess.Prepare(ctx, src)          // optimize once
//	rows, _ = stmt.Query(ctx)                  // cache hit
//	rows, _ = sess.Query(ctx, src, axml.WithTimeout(2*time.Second))
//
// Materialize a view near its consumers and repeated queries stop
// shipping base data — the pipeline rewrites subsumed queries to read
// the view when that is cheaper, and DefineView invalidates cached
// plans so they re-plan against the new catalog:
//
//	_ = sys.DefineView("cheap",
//	    `for $i in doc("catalog")/item where $i/price < 100 return $i`,
//	    client.ID)
//	rows, _ = sess.Query(ctx, src)             // re-planned, reads the view
//
// # Expression-level API
//
// The algebra remains available for hand-built plans: sys.Eval(at,
// expr) evaluates an expression directly (EvalContext under a
// context), and Optimize runs the plan search once without session
// caching. New code should prefer Session.
//
//	res, err := sys.Eval(client.ID, &axml.Query{Q: q, At: client.ID})
//	plan, _, err := axml.Optimize(sys, client.ID, expr, axml.OptOptions{})
//
// The deeper layers remain importable for advanced use: internal/core
// (algebra), internal/rewrite (rules), internal/opt (optimizer),
// internal/view (materialized views), internal/session (the session
// pipeline), internal/wire (the TCP protocol), internal/xquery and
// internal/xpath (the query languages), internal/netsim (the
// instrumented network), internal/axmldoc (document-level service-call
// activation).
package axml

import (
	"context"

	"axml/internal/core"
	"axml/internal/gendoc"
	"axml/internal/netsim"
	"axml/internal/obs"
	"axml/internal/opt"
	"axml/internal/peer"
	"axml/internal/placement"
	"axml/internal/rewrite"
	"axml/internal/service"
	"axml/internal/view"
	"axml/internal/xmltree"
	"axml/internal/xquery"
	"axml/internal/xtype"
)

// Core data-model aliases.
type (
	// Node is one node of an XML tree (unranked, unordered model).
	Node = xmltree.Node
	// PeerID identifies a peer p ∈ P.
	PeerID = netsim.PeerID
	// NodeRef is a global node reference n@p.
	NodeRef = peer.NodeRef
	// Peer is a peer runtime hosting documents and services.
	Peer = peer.Peer
	// Snapshot is a pinned, immutable view of a peer's document store
	// at one epoch — obtained with Peer.Snapshot, freed with Release.
	Snapshot = peer.Handle
	// Service is a Web service s@p (declarative or builtin).
	Service = service.Service
	// Signature is a service type signature (τin, τout).
	Signature = xtype.Signature
	// Schema is an XML type τ ∈ Θ.
	Schema = xtype.Schema
	// XQuery is a parsed query (the body of declarative services).
	XQuery = xquery.Query
	// Network is the instrumented message-passing substrate.
	Network = netsim.Network
	// Link is a directed network link profile.
	Link = netsim.Link
	// Result is the outcome of evaluating an expression.
	Result = core.Result
)

// System is a set of peers, their network and generics catalog
// (core.System, embedded), extended with a materialized-view manager:
// DefineView places query results at chosen peers and Optimize
// automatically considers view-reading plans. Construct with
// NewLocalSystem or NewSystem.
type System struct {
	*core.System
	views     *view.Manager
	placement *placement.Controller
	metrics   *obs.Registry
}

// DefineView materializes query src as view name at peer at (see
// internal/view). Queries optimized through Optimize may then be
// rewritten to read the view; RefreshViews, or a query run
// WithConsistentView, brings it up to date with its base documents.
func (s *System) DefineView(name, src string, at PeerID) error {
	return s.views.Define(name, src, at)
}

// Views describes the defined views.
func (s *System) Views() []ViewInfo { return s.views.Views() }

// DropView removes a materialized view and its catalog registrations.
func (s *System) DropView(name string) error { return s.views.Drop(name) }

// RefreshViews synchronously brings every view up to date and returns
// the number of result trees moved.
func (s *System) RefreshViews() (int, error) { return s.views.RefreshAll() }

// ViewManager exposes the underlying manager for advanced use
// (replicated placements, the optimizer rule, drop/refresh policies).
func (s *System) ViewManager() *view.Manager { return s.views }

// Adaptive placement: views follow their query traffic at runtime.

// PlacementConfig tunes adaptive placement: per-peer byte budgets,
// hysteresis margin, replica cap, cooldown (see internal/placement).
type PlacementConfig = placement.Config

// PlacementDecision records one executed placement action.
type PlacementDecision = placement.Decision

// PlacementController drives the observe→decide→act loop; call Step
// to run one round.
type PlacementController = placement.Controller

// PlacementInfo describes one materialized copy of one view.
type PlacementInfo = view.PlacementInfo

// EnableAdaptivePlacement attaches a traffic-driven placement
// controller to the system: sessions opened afterwards (Session,
// LocalSession) report their query traffic to its observer, and each
// Controller.Step migrates, replicates or evicts view placements
// toward the observed demand under the configured budgets. Call Step
// on whatever cadence suits the deployment — a ticker, or once per
// workload round. Calling EnableAdaptivePlacement again replaces the
// configuration (sessions already open keep feeding the old observer).
func (s *System) EnableAdaptivePlacement(cfg PlacementConfig) *PlacementController {
	if cfg.Metrics == nil {
		cfg.Metrics = s.metrics
	}
	s.placement = placement.New(s.views, cfg)
	return s.placement
}

// PlacementController returns the adaptive-placement controller, or
// nil when EnableAdaptivePlacement has not been called.
func (s *System) PlacementController() *PlacementController { return s.placement }

// Placements returns the current view-placement map.
func (s *System) Placements() []PlacementInfo { return s.views.Placements() }

// Close stops view maintenance and all continuous subscriptions.
func (s *System) Close() {
	s.views.Close()
	s.System.Close()
}

// Expression algebra aliases (paper §3.1).
type (
	// Expr is an AXML expression e ∈ E.
	Expr = core.Expr
	// Tree is t@p.
	Tree = core.Tree
	// Doc is d@p (or d@any).
	Doc = core.Doc
	// Query is q@p(args…).
	Query = core.Query
	// QueryVal is a query as a shippable value (definition (8)).
	QueryVal = core.QueryVal
	// Send is the send(·) constructor (definitions (3),(4),(8)).
	Send = core.Send
	// Relay is a send routed through intermediary peers (rule (12)).
	Relay = core.Relay
	// ServiceCall is sc((p|any), s, [params], [forw]) (§2.3).
	ServiceCall = core.ServiceCall
	// EvalAt is eval@p(e) delegation (rules (14),(15)).
	EvalAt = core.EvalAt
	// DestPeer, DestNodes, DestDoc are send destinations.
	DestPeer  = core.DestPeer
	DestNodes = core.DestNodes
	DestDoc   = core.DestDoc
)

// Optimizer aliases.
type (
	// Plan is an optimized expression with predicted costs.
	Plan = opt.Plan
	// OptOptions configures the plan search.
	OptOptions = opt.Options
	// RewriteRule is one equivalence rule of §3.3.
	RewriteRule = rewrite.Rule
	// DocReplica is a member of a generic-document class.
	DocReplica = gendoc.DocReplica
	// ViewDefinition declares a materialized view (internal/view).
	ViewDefinition = view.Definition
	// ViewInfo describes one materialized view's current state.
	ViewInfo = view.Info
)

// AnyPeer marks generic document/service references (d@any, s@any).
const AnyPeer = core.AnyPeer

// NewLocalSystem creates a system over a fresh simulated network with
// the default LAN-like link profile.
func NewLocalSystem() *System { return wrap(core.NewSystem(netsim.New())) }

// NewSystem creates a system over the given network (configure links
// and topologies on it first or afterwards).
func NewSystem(net *Network) *System { return wrap(core.NewSystem(net)) }

// wrap attaches the facade (view manager included) to a core.System.
func wrap(sys *core.System) *System {
	s := &System{System: sys, views: view.NewManager(sys), metrics: obs.NewRegistry()}
	sys.RegisterGauges(s.metrics)
	return s
}

// Observability: every System carries a metrics registry that its
// sessions and (when enabled) placement controller feed, plus
// distributed query tracing — see internal/obs and the README's
// Observability section.

type (
	// Metrics is the unified counter/gauge/histogram registry.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = obs.Snapshot
	// Trace collects the spans of one traced query.
	Trace = obs.Trace
	// TraceSpan is one timed phase of a traced evaluation.
	TraceSpan = obs.Span
)

// Metrics returns the system's registry: session plan-cache counters,
// network totals, placement action counts. Snapshot it, or render with
// RenderMetrics.
func (s *System) Metrics() *Metrics { return s.metrics }

// NewTrace creates a trace; put it in a context with WithTrace and
// every session query and delegated evaluation under that context
// records spans into it.
func NewTrace(id string) *Trace { return obs.NewTrace(id) }

// WithTrace returns a context carrying the trace (see NewTrace).
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return obs.WithTrace(ctx, tr)
}

// RenderTrace draws a trace's span tree (EXPLAIN ANALYZE output).
func RenderTrace(spans []TraceSpan) string { return obs.Render(spans) }

// RenderMetrics renders a metrics snapshot as aligned text.
func RenderMetrics(snap MetricsSnapshot) string { return obs.RenderSnapshot(snap) }

// NewNetwork creates an empty simulated network.
func NewNetwork() *Network { return netsim.New() }

// ParseXML parses one XML document and returns its root.
func ParseXML(src string) (*Node, error) { return xmltree.Parse(src) }

// MustParseXML is ParseXML that panics on error.
func MustParseXML(src string) *Node { return xmltree.MustParse(src) }

// SerializeXML renders a tree compactly.
func SerializeXML(n *Node) string { return xmltree.Serialize(n) }

// SerializeXMLIndent renders a tree with indentation.
func SerializeXMLIndent(n *Node) string { return xmltree.SerializeIndent(n) }

// ParseQuery parses a query in the FLWR language.
func ParseQuery(src string) (*XQuery, error) { return xquery.Parse(src) }

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(src string) *XQuery { return xquery.MustParse(src) }

// ParseSchema parses the compact schema syntax of internal/xtype.
func ParseSchema(src string) (*Schema, error) { return xtype.ParseSchema(src) }

// Optimize searches for the cheapest equivalent plan of e evaluated at
// peer at, under the paper's equivalence rules plus the system's
// materialized-view rewritings: a plan reading a nearby view competes
// with base-data shipping on real link costs. The search is bounded (4
// rule applications along a derivation, 512 plans in all) and scores
// plans with opt.DefaultWeights; opts.Rules replaces the default rule
// set, for ablations. It returns the chosen plan and the number of
// plans explored.
func Optimize(sys *System, at PeerID, e Expr, opts OptOptions) (*Plan, int, error) {
	opts.ExtraRules = append(opts.ExtraRules, sys.views.Rule())
	return opt.Optimize(sys.System, at, e, opts)
}

// DefaultRules returns the rules (10)–(16), each read in the direction
// that moves work or data; the search needs no inverse readings.
func DefaultRules() []RewriteRule { return rewrite.DefaultRules() }

// ExprToXML serializes an expression to its XML tree form (§3.1).
func ExprToXML(e Expr) *Node { return core.ToXML(e) }

// ParseExpr parses the XML tree form of an expression.
func ParseExpr(n *Node) (Expr, error) { return core.ParseExpr(n) }
