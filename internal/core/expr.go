// Package core implements the paper's main contribution (§3): the
// expression language E for distributed AXML computations and its
// evaluator, definitions (1)–(9).
//
// An expression denotes a distributed computation over the peers of a
// System: trees and documents located at peers (t@p, d@p), query
// applications (q@p(e₁,…,eₙ)), explicit data/query shipping (the send
// constructors), service calls with forward lists, delegation
// (eval@p(e)), and generic document/service references (d@any, s@any)
// resolved through pickDoc (definition (9)).
//
// Expressions serialize to XML (§3.1: "An expression can be viewed
// (serialized) as an XML tree") so that peers can mail plan fragments
// to one another — the "mutant query plan" style the paper cites. See
// ToXML and ParseExpr.
//
// The evaluator charges every cross-peer transfer to the netsim
// network (bytes, messages, virtual time) so that the equivalence
// rules of §3.3 (package rewrite) have measurable consequences.
package core

import (
	"fmt"
	"strings"

	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// AnyPeer is the generic location marker of §2.3: d@any denotes any
// document of an equivalence class, s@any any provider of a generic
// service.
const AnyPeer = netsim.PeerID("any")

// Expr is an AXML expression e ∈ E located somewhere in the system.
type Expr interface {
	// String renders the expression in the paper's notation.
	String() string
	// loc returns the peer at which the expression's data lives, or
	// "" when the expression is location-free (sends, service calls).
	loc() netsim.PeerID
}

// Tree is t@p: a literal tree residing at peer At. Evaluating it
// applies definition (1) (copy, push evaluation to children — i.e.
// activate embedded service calls) or (5) when evaluated elsewhere.
type Tree struct {
	Node *xmltree.Node
	At   netsim.PeerID
}

func (t *Tree) String() string {
	s := xmltree.Serialize(t.Node)
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return fmt.Sprintf("%s@%s", s, t.At)
}

func (t *Tree) loc() netsim.PeerID { return t.At }

// Doc is d@p (or d@any when At == AnyPeer): a named document.
type Doc struct {
	Name string
	At   netsim.PeerID
}

func (d *Doc) String() string { return d.Name + "@" + string(d.At) }

func (d *Doc) loc() netsim.PeerID { return d.At }

// Query is q@p(args…): the application of a query located at At to
// argument expressions (definitions (2) and (7)). The query text
// travels with the expression; At records where the query is defined,
// so that evaluating it elsewhere charges the shipping of q itself
// (definition (7) sends both the query and its arguments).
//
// ShareArgs enables rule (13) (transfer sharing): structurally
// identical argument expressions are evaluated once and the result
// reused. This trades the parallel evaluation of the duplicated
// transfers for halved traffic — "this may be worth it if t is large".
type Query struct {
	Q         *xquery.Query
	At        netsim.PeerID
	Args      []Expr
	ShareArgs bool
}

func (q *Query) String() string {
	args := make([]string, len(q.Args))
	for i, a := range q.Args {
		args[i] = a.String()
	}
	text := q.Q.String()
	if len(text) > 40 {
		text = text[:37] + "..."
	}
	return fmt.Sprintf("q[%s]@%s(%s)", text, q.At, strings.Join(args, ", "))
}

func (q *Query) loc() netsim.PeerID { return q.At }

// QueryVal is a query as a value q@p — the payload of a query-shipping
// send (definition (8)). Name is the service name the query is
// deployed under at the destination.
type QueryVal struct {
	Q    *xquery.Query
	At   netsim.PeerID
	Name string
}

func (q *QueryVal) String() string {
	return fmt.Sprintf("query(%s)@%s", q.Name, q.At)
}

func (q *QueryVal) loc() netsim.PeerID { return q.At }

// Dest is the destination of a send expression.
type Dest interface {
	destString() string
}

// DestPeer is send(p, e): the data lands at peer P under a fresh
// anchor node (definition (3)).
type DestPeer struct{ P netsim.PeerID }

func (d DestPeer) destString() string { return string(d.P) }

// DestNodes is send([n₁@p₁,…], e): the data is added as a child of
// each referenced node (definition (4)).
type DestNodes struct{ Refs []peer.NodeRef }

func (d DestNodes) destString() string {
	parts := make([]string, len(d.Refs))
	for i, r := range d.Refs {
		parts[i] = r.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// DestDoc is send(d@p, e): the data is installed as a new document
// named Name at peer At (definition (3), last form).
type DestDoc struct {
	Name string
	At   netsim.PeerID
}

func (d DestDoc) destString() string { return d.Name + "@" + string(d.At) }

// Send is the send(·) expression constructor. Evaluating it returns ∅
// at the evaluation site and, as a side effect, moves a copy of the
// payload's value to the destination (definitions (3), (4), (8)).
//
// Per §3.2, sendp2→p1(x@p0) is undefined when p2 ≠ p0: a peer cannot
// send data it does not have. The evaluator enforces this.
type Send struct {
	Dest    Dest
	Payload Expr
}

func (s *Send) String() string {
	return fmt.Sprintf("send(%s, %s)", s.Dest.destString(), s.Payload.String())
}

func (s *Send) loc() netsim.PeerID { return "" }

// ServiceCall is sc((p|any), s, [param…], [forw…]) (§2.3). Evaluating
// it at p0 applies definition (6): parameters are evaluated at p0,
// shipped to the provider, the provider applies the service, and the
// results are shipped to the forward targets — or back to p0 when the
// forward list is empty (the default forw of §2.3 is the caller).
type ServiceCall struct {
	Provider netsim.PeerID // may be AnyPeer for generic services
	Service  string
	Params   []Expr
	Forward  []peer.NodeRef
}

func (c *ServiceCall) String() string {
	params := make([]string, len(c.Params))
	for i, p := range c.Params {
		params[i] = p.String()
	}
	fw := make([]string, len(c.Forward))
	for i, f := range c.Forward {
		fw[i] = f.String()
	}
	return fmt.Sprintf("sc(%s, %s, [%s], [%s])",
		c.Provider, c.Service, strings.Join(params, ", "), strings.Join(fw, ", "))
}

func (c *ServiceCall) loc() netsim.PeerID { return "" }

// Relay is the two-sided form of rule (12): the payload travels from
// its home peer through the Via peers, in order, before reaching Dest.
// Read right-to-left the rule introduces an intermediary stop
// (sendp1→p2(eval@p0(send(p1, t@p0))) from sendp0→p2(t@p0)); read
// left-to-right it removes one. An empty Via is exactly a Send.
//
// The paper notes the left-to-right direction is "not always" the
// right choice: with a slow direct link and fast hops, the relayed
// route wins — TestPaperExperiments/E3.
type Relay struct {
	Via     []netsim.PeerID
	Dest    Dest
	Payload Expr
}

func (r *Relay) String() string {
	hops := make([]string, len(r.Via))
	for i, v := range r.Via {
		hops[i] = string(v)
	}
	return fmt.Sprintf("relay(via=[%s], %s, %s)",
		strings.Join(hops, ","), r.Dest.destString(), r.Payload.String())
}

func (r *Relay) loc() netsim.PeerID { return "" }

// EvalAt is eval@p(e): explicit delegation of an evaluation to peer At
// (rules (14), (15)). The expression is serialized, shipped to At,
// evaluated there, and the result shipped back.
type EvalAt struct {
	At netsim.PeerID
	E  Expr
}

func (e *EvalAt) String() string {
	return fmt.Sprintf("eval@%s(%s)", e.At, e.E.String())
}

func (e *EvalAt) loc() netsim.PeerID { return e.At }

// Result is the outcome of evaluating an expression.
type Result struct {
	// Forest is the data returned at the evaluation site (empty for
	// send expressions, whose value is ∅).
	Forest []*xmltree.Node
	// VT is the virtual time at which the result was complete at the
	// evaluation site, in milliseconds.
	VT float64
	// Deployed is set when the expression deployed a query as a new
	// service (definition (8)).
	Deployed *ServiceRef
	// Anchors lists nodes created at remote peers to receive shipped
	// data (DestPeer sends).
	Anchors []peer.NodeRef
}

// ServiceRef names a deployed service.
type ServiceRef struct {
	Provider netsim.PeerID
	Name     string
}

func (r ServiceRef) String() string { return r.Name + "@" + string(r.Provider) }

// Walk visits e and all sub-expressions in pre-order. If f returns
// false, the children of the current expression are skipped.
func Walk(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch v := e.(type) {
	case *Query:
		for _, a := range v.Args {
			Walk(a, f)
		}
	case *Send:
		Walk(v.Payload, f)
	case *Relay:
		Walk(v.Payload, f)
	case *ServiceCall:
		for _, p := range v.Params {
			Walk(p, f)
		}
	case *EvalAt:
		Walk(v.E, f)
	}
}

// Clone returns a deep copy of the expression (trees included).
func Clone(e Expr) Expr {
	switch v := e.(type) {
	case *Tree:
		return &Tree{Node: xmltree.DeepCopyKeepIDs(v.Node), At: v.At}
	case *Doc:
		return &Doc{Name: v.Name, At: v.At}
	case *Query:
		args := make([]Expr, len(v.Args))
		for i, a := range v.Args {
			args[i] = Clone(a)
		}
		return &Query{Q: v.Q, At: v.At, Args: args, ShareArgs: v.ShareArgs}
	case *QueryVal:
		return &QueryVal{Q: v.Q, At: v.At, Name: v.Name}
	case *Send:
		return &Send{Dest: cloneDest(v.Dest), Payload: Clone(v.Payload)}
	case *Relay:
		via := make([]netsim.PeerID, len(v.Via))
		copy(via, v.Via)
		return &Relay{Via: via, Dest: cloneDest(v.Dest), Payload: Clone(v.Payload)}
	case *ServiceCall:
		params := make([]Expr, len(v.Params))
		for i, p := range v.Params {
			params[i] = Clone(p)
		}
		fw := make([]peer.NodeRef, len(v.Forward))
		copy(fw, v.Forward)
		return &ServiceCall{Provider: v.Provider, Service: v.Service, Params: params, Forward: fw}
	case *EvalAt:
		return &EvalAt{At: v.At, E: Clone(v.E)}
	default:
		return e
	}
}

func cloneDest(d Dest) Dest {
	switch v := d.(type) {
	case DestNodes:
		refs := make([]peer.NodeRef, len(v.Refs))
		copy(refs, v.Refs)
		return DestNodes{Refs: refs}
	default:
		return d
	}
}
