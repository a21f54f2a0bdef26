// Package axmldoc implements AXML documents proper (paper §2.2): XML
// documents containing sc (service call) elements that evolve in
// place. Activating a call sends the parameters to the provider and
// inserts the response trees as siblings of the sc node; continuous
// calls keep accumulating siblings as the provider's data evolves.
//
// Activating one call is one transaction at the host: the sc, its
// parent and its after= dependency are read from one pinned epoch, the
// results come back in the call's reply, and one Peer.Write lands them
// with the sc's activated marker. Readers see both or neither, and of
// two activators of one call only the first to commit lands anything.
//
// The package also provides the activation disciplines the paper
// names — immediate, lazy (activate only when a query needs the
// document, per [2]), and after-another-call ordering — plus fixpoint
// expansion and the document equivalence ≡ of §2.3, defined as "their
// potential evolution … will eventually reach the same fixpoint",
// which expands its probes in a private store no other reader sees.
//
// It is a library the serving path does not use: no session, wire verb
// or view reaches it, and examples/quickstart is its only caller.
package axmldoc

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// Activator activates service calls embedded in one peer's documents.
type Activator struct {
	Sys  *core.System
	Peer *peer.Peer
}

// New creates an activator for a peer.
func New(sys *core.System, p *peer.Peer) *Activator {
	return &Activator{Sys: sys, Peer: p}
}

// Attributes recording activation state and ordering on sc elements.
const (
	attrState   = "x:state"
	stateActive = "activated"
	attrAfter   = "after" // sc must activate after the sc with this id
	attrCallID  = "id"    // user-assigned call identifier
)

// ErrNotPending reports an sc that is not a pending call of the
// document: absent, or activated already (perhaps concurrently).
var ErrNotPending = errors.New("axmldoc: sc is not a pending call of the document")

// PendingCalls returns the sc elements of a document that have not
// been activated yet, in document order. Calls nested inside pending
// calls are not reported (they may only appear in results later), nor
// is an sc at the document root, which has no parent to receive
// results.
func (a *Activator) PendingCalls(docName string) ([]*xmltree.Node, error) {
	root, err := a.root(docName)
	if err != nil {
		return nil, err
	}
	var out []*xmltree.Node
	calls(root, func(sc, _ *xmltree.Node) {
		if !isActive(sc) {
			out = append(out, sc)
		}
	})
	return out, nil
}

// ActivateNode activates one pending sc element of the named document
// in place (paper §2.2 steps 1–3): the parameters are evaluated at this
// peer, shipped to the provider, and the response trees are inserted as
// siblings of the sc node (the default forward target is the sc's
// parent, §2.3). The sc element stays in the document, marked
// activated, so continuous services keep appending next to it. An sc
// with explicit forward targets has its results shipped there by the
// provider; only its marker lands here.
func (a *Activator) ActivateNode(ctx context.Context, docName string, sc *xmltree.Node) error {
	if sc == nil || sc.Kind != xmltree.ElementNode || sc.Label != "sc" {
		return fmt.Errorf("axmldoc: node is not an sc element")
	}
	root, err := a.root(docName)
	if err != nil {
		return err
	}
	// The sc, its parent and its after= dependency come from one pinned
	// epoch: a marker, once set, is never cleared, so what it shows holds.
	var parent, dep *xmltree.Node
	afterID, after := sc.Attr(attrAfter)
	calls(root, func(c, p *xmltree.Node) {
		if c.ID == sc.ID {
			sc, parent = c, p
		}
		if v, _ := c.Attr(attrCallID); after && v == afterID && dep == nil {
			dep = c
		}
	})
	switch {
	case parent == nil || isActive(sc):
		return ErrNotPending
	case after && dep == nil:
		return fmt.Errorf("axmldoc: after=%q references no sc element", afterID)
	case after && !isActive(dep):
		return &NotReadyError{CallID: afterID}
	}
	call, err := ParseCallElement(sc, a.Peer.ID)
	if err != nil {
		return err
	}
	if call.Provider == core.AnyPeer {
		// Resolved here rather than by the evaluation, so that a
		// continuous service subscribes at the provider that answered.
		ref, err := a.Sys.Generics.ResolveService(a.Peer.ID, call.Service)
		if err != nil {
			return fmt.Errorf("%w: %v", core.ErrNoSuchService, err)
		}
		call.Provider, call.Service = ref.Provider, ref.Name
	}
	res, err := a.Sys.EvalContext(ctx, a.Peer.ID, call)
	if err != nil {
		return err
	}
	marked := xmltree.DeepCopy(sc)
	marked.SetAttr(attrState, stateActive)
	err = a.Peer.Write(func(tx *peer.Tx) error {
		// The marked copy takes fresh identifiers, so once one activator
		// commits, the pending sc's ID is gone for every other.
		if !tx.Has(sc.ID) {
			return ErrNotPending
		}
		if err := tx.Replace(parent.ID, sc.ID, marked); err != nil {
			return err
		}
		for _, n := range res.Forest {
			if err := tx.Append(parent.ID, n); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil || len(call.Forward) > 0 {
		return err
	}
	// A continuous service streams its later results to the sc's
	// parent too, unless this store is not the system's peer (nothing
	// could land there).
	if sp, ok := a.Sys.Peer(a.Peer.ID); !ok || sp != a.Peer {
		return nil
	}
	params := make([][]*xmltree.Node, len(call.Params))
	for i, pe := range call.Params {
		params[i] = []*xmltree.Node{pe.(*core.Tree).Node}
	}
	target := []peer.NodeRef{{Peer: a.Peer.ID, Node: parent.ID}}
	return a.Sys.Subscribe(call.Provider, call.Service, params, target)
}

// root reads the named document's newest root through a snapshot. A
// published tree is immutable, so it stays valid once the pin is gone.
func (a *Activator) root(docName string) (*xmltree.Node, error) {
	h := a.Peer.Snapshot()
	defer h.Release()
	return h.Root(docName)
}

// calls visits, in document order, the sc elements under n that no
// other sc contains, each with the element holding it.
func calls(n *xmltree.Node, fn func(sc, parent *xmltree.Node)) {
	for _, c := range n.Children {
		switch {
		case c.Kind != xmltree.ElementNode:
		case c.Label == "sc":
			fn(c, n)
		default:
			calls(c, fn)
		}
	}
}

func isActive(sc *xmltree.Node) bool {
	v, _ := sc.Attr(attrState)
	return v == stateActive
}

// NotReadyError reports an sc whose after-dependency is not activated.
type NotReadyError struct {
	CallID string
}

func (e *NotReadyError) Error() string {
	return fmt.Sprintf("axmldoc: call depends on %q which is not yet activated", e.CallID)
}

// ParseCallElement builds a core.ServiceCall from an sc element. Both
// syntaxes are accepted: the attribute form the expression
// serialization uses (provider="p" service="s" with x:param/x:forw
// children) and the legacy AXML child-element form (<peer>, <service>,
// <param>…, <forw>n@p</forw>…). Each param must contain exactly one
// element, taken as a literal tree at the host peer.
func ParseCallElement(sc *xmltree.Node, host netsim.PeerID) (*core.ServiceCall, error) {
	provider, _ := sc.Attr("provider")
	svcName, _ := sc.Attr("service")
	if provider == "" {
		if el := sc.FirstChildElement("peer"); el != nil {
			provider = el.TextContent()
		}
	}
	if svcName == "" {
		if el := sc.FirstChildElement("service"); el != nil {
			svcName = el.TextContent()
		}
	}
	if provider == "" || svcName == "" {
		return nil, fmt.Errorf("axmldoc: sc element lacks provider/service")
	}
	call := &core.ServiceCall{Provider: netsim.PeerID(provider), Service: svcName}
	for _, c := range sc.ChildElements() {
		switch c.Label {
		case "param", "x:param":
			kids := c.ChildElements()
			if len(kids) != 1 {
				return nil, fmt.Errorf("axmldoc: param must contain exactly one element, has %d", len(kids))
			}
			call.Params = append(call.Params, &core.Tree{Node: xmltree.DeepCopy(kids[0]), At: host})
		case "forw", "x:forw":
			refStr, ok := c.Attr("ref")
			if !ok {
				refStr = c.TextContent()
			}
			ref, err := peer.ParseNodeRef(refStr)
			if err != nil {
				return nil, err
			}
			call.Forward = append(call.Forward, ref)
		}
	}
	return call, nil
}

// ActivateDocument activates the calls currently pending in the
// document (one round: sc elements introduced by the results are NOT
// activated — Fixpoint handles those), honoring after-ordering within
// the round. It returns the number of calls it activated; a call that
// another activator committed first is skipped. Calls whose
// dependencies cannot be satisfied within the round are left pending.
func (a *Activator) ActivateDocument(ctx context.Context, docName string) (int, error) {
	remaining, err := a.PendingCalls(docName)
	if err != nil {
		return 0, err
	}
	activated := 0
	for len(remaining) > 0 {
		var deferred []*xmltree.Node
		for _, sc := range remaining {
			err := a.ActivateNode(ctx, docName, sc)
			var notReady *NotReadyError
			switch {
			case err == nil:
				activated++
			case errors.Is(err, ErrNotPending):
			case errors.As(err, &notReady):
				deferred = append(deferred, sc) // retry after its dependency fires
			default:
				return activated, err
			}
		}
		if len(deferred) == len(remaining) {
			return activated, nil
		}
		remaining = deferred
	}
	return activated, nil
}

// Fixpoint activates calls in rounds until the document stops changing
// (no pending calls remain) or maxRounds is exhausted — service
// results may themselves contain sc elements, which the next round
// picks up. It reports the number of rounds run and whether a fixpoint
// was reached.
func (a *Activator) Fixpoint(ctx context.Context, docName string, maxRounds int) (rounds int, reached bool, err error) {
	for rounds = 0; rounds < maxRounds; rounds++ {
		n, err := a.ActivateDocument(ctx, docName)
		if err != nil {
			return rounds, false, err
		}
		if n == 0 {
			return rounds, true, nil
		}
	}
	pending, err := a.PendingCalls(docName)
	if err != nil {
		return rounds, false, err
	}
	return rounds, len(pending) == 0, nil
}

// LazyQuery implements lazy activation (paper §2.2, [2]): the calls of
// the document are activated only when a query over it arrives, then
// the query is evaluated over the expanded document.
func (a *Activator) LazyQuery(ctx context.Context, docName string, q *xquery.Query, maxRounds int) ([]*xmltree.Node, error) {
	if _, _, err := a.Fixpoint(ctx, docName, maxRounds); err != nil {
		return nil, err
	}
	return a.Peer.RunQuery(q)
}

// dataOf copies a tree without its sc elements, so expanded documents
// compare and validate by their data content.
func dataOf(n *xmltree.Node) *xmltree.Node {
	c := &xmltree.Node{Kind: n.Kind, Label: n.Label, Text: n.Text, Attrs: slices.Clone(n.Attrs)}
	for _, k := range n.Children {
		if k.Kind != xmltree.ElementNode || k.Label != "sc" {
			c.AppendChild(dataOf(k))
		}
	}
	return c
}

// Equivalent implements the ≡ of §2.3 operationally: both trees are
// expanded to fixpoint (budgeted) by this peer's calls, landing in a
// private store the system never registers, then compared without
// their sc elements under the unordered tree equality. A false result
// with reached=false means the budget expired before a fixpoint — the
// comparison is then only an approximation, as the underlying problem
// is undecidable in general (the paper cites [5] for the formal
// treatment).
func (a *Activator) Equivalent(ctx context.Context, t1, t2 *xmltree.Node, maxRounds int) (equal bool, reached bool, err error) {
	probe := New(a.Sys, peer.New(a.Peer.ID))
	reached = true
	var expanded [2]*xmltree.Node
	for i, t := range [2]*xmltree.Node{t1, t2} {
		name := fmt.Sprint(i)
		if err := probe.Peer.Write(func(tx *peer.Tx) error { return tx.Install(name, xmltree.DeepCopy(t)) }); err != nil {
			return false, false, err
		}
		_, ok, err := probe.Fixpoint(ctx, name, maxRounds)
		if err != nil {
			return false, false, err
		}
		root, err := probe.root(name)
		if err != nil {
			return false, false, err
		}
		reached, expanded[i] = reached && ok, dataOf(root)
	}
	return xmltree.Equal(expanded[0], expanded[1]), reached, nil
}
