// Package axmldoc implements AXML documents proper (paper §2.2): XML
// documents containing sc (service call) elements that evolve in
// place. Activating a call sends the parameters to the provider and
// inserts the response trees as siblings of the sc node; continuous
// calls keep accumulating siblings as the provider's data evolves.
//
// The package also provides the activation disciplines the paper
// names — immediate, lazy (activate only when a query needs the
// document, per [2]), and after-another-call ordering — plus fixpoint
// expansion and the document equivalence ≡ of §2.3, defined as "their
// potential evolution … will eventually reach the same fixpoint".
//
// It is a library the serving path does not use: no session, wire verb
// or view reaches it, and examples/quickstart is its only caller.
package axmldoc

import (
	"fmt"

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

// PendingCalls returns the sc elements of a document that have not
// been activated yet, in document order. Calls nested inside pending
// calls are not reported (they may only appear in results later).
func (a *Activator) PendingCalls(docName string) ([]*xmltree.Node, error) {
	root, err := a.root(docName)
	if err != nil {
		return nil, err
	}
	var out []*xmltree.Node
	root.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.ElementNode && n.Label == "sc" {
			if v, _ := n.Attr(attrState); v != stateActive {
				out = append(out, n)
			}
			return false
		}
		return true
	})
	return out, nil
}

// ActivateNode activates one sc element in place (paper §2.2 steps
// 1–3): the parameters are evaluated at this peer, shipped to the
// provider, and the response trees are inserted as siblings of the sc
// node (the default forward target is the sc's parent, §2.3). The sc
// element stays in the document, marked activated, so continuous
// services keep appending next to it.
func (a *Activator) ActivateNode(sc *xmltree.Node) error {
	if sc == nil || sc.Kind != xmltree.ElementNode || sc.Label != "sc" {
		return fmt.Errorf("axmldoc: node is not an sc element")
	}
	// Re-resolve against the newest epoch: documents are copy-on-write,
	// so the caller may hold the node as of an earlier snapshot walk
	// while a sibling's activation has since published newer state.
	if live, ok := a.Peer.NodeByID(sc.ID); ok && live.Kind == xmltree.ElementNode && live.Label == "sc" {
		sc = live
	}
	if v, _ := sc.Attr(attrState); v == stateActive {
		return fmt.Errorf("axmldoc: call already activated")
	}
	if sc.Parent == nil {
		return fmt.Errorf("axmldoc: sc element has no parent to receive results")
	}
	// after="id": the referenced call must have been activated first.
	// The dependency's state lives in the newest epoch, so look it up
	// through the document store rather than this node's Parent chain
	// (which may climb into an older epoch's spine).
	if afterID, ok := sc.Attr(attrAfter); ok {
		root := sc.Root()
		if docName, ok := a.Peer.DocumentOfNode(sc.ID); ok && docName != "" {
			if newest, err := a.root(docName); err == nil {
				root = newest
			}
		}
		dep := findCallByID(root, afterID)
		if dep == nil {
			return fmt.Errorf("axmldoc: after=%q references no sc element", afterID)
		}
		if v, _ := dep.Attr(attrState); v != stateActive {
			return &NotReadyError{CallID: afterID}
		}
	}
	call, err := ParseCallElement(sc, a.Peer.ID)
	if err != nil {
		return err
	}
	if len(call.Forward) == 0 {
		if sc.Parent.ID == 0 {
			return fmt.Errorf("axmldoc: sc parent has no node ID (document not installed?)")
		}
		call.Forward = []peer.NodeRef{{Peer: a.Peer.ID, Node: sc.Parent.ID}}
	}
	if _, err := a.Sys.Eval(a.Peer.ID, call); err != nil {
		return err
	}
	// Publish the activation marker through the peer so it commits as
	// its own epoch instead of mutating the shared sc node in place.
	updated := xmltree.DeepCopyKeepIDs(sc)
	updated.SetAttr(attrState, stateActive)
	if err := a.Peer.ReplaceChildByID(0, sc.ID, updated); err != nil {
		return fmt.Errorf("axmldoc: recording activation: %w", err)
	}
	return nil
}

// root reads the named document's newest root through a snapshot. A
// published tree is immutable, so it stays valid once the pin is gone.
func (a *Activator) root(docName string) (*xmltree.Node, error) {
	h := a.Peer.Snapshot()
	defer h.Release()
	return h.Root(docName)
}

// NotReadyError reports an sc whose after-dependency is not activated.
type NotReadyError struct {
	CallID string
}

func (e *NotReadyError) Error() string {
	return fmt.Sprintf("axmldoc: call depends on %q which is not yet activated", e.CallID)
}

func findCallByID(root *xmltree.Node, id string) *xmltree.Node {
	var found *xmltree.Node
	root.Walk(func(n *xmltree.Node) bool {
		if found != nil {
			return false
		}
		if n.Kind == xmltree.ElementNode && n.Label == "sc" {
			if v, _ := n.Attr(attrCallID); v == id {
				found = n
				return false
			}
		}
		return true
	})
	return found
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
// the round. It returns the number of calls activated. Calls whose
// dependencies cannot be satisfied within the round are left pending.
func (a *Activator) ActivateDocument(docName string) (int, error) {
	snapshot, err := a.PendingCalls(docName)
	if err != nil {
		return 0, err
	}
	activated := 0
	remaining := snapshot
	for len(remaining) > 0 {
		progressed := false
		var deferred []*xmltree.Node
		for _, sc := range remaining {
			err := a.ActivateNode(sc)
			if err != nil {
				if _, notReady := err.(*NotReadyError); notReady {
					deferred = append(deferred, sc)
					continue // retry after its dependency fires
				}
				return activated, err
			}
			activated++
			progressed = true
		}
		if !progressed {
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
func (a *Activator) Fixpoint(docName string, maxRounds int) (rounds int, reached bool, err error) {
	for rounds = 0; rounds < maxRounds; rounds++ {
		n, err := a.ActivateDocument(docName)
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
func (a *Activator) LazyQuery(docName string, q *xquery.Query, maxRounds int) ([]*xmltree.Node, error) {
	if _, _, err := a.Fixpoint(docName, maxRounds); err != nil {
		return nil, err
	}
	return a.Peer.RunQuery(q)
}

// stripActivationState removes the bookkeeping attributes and sc
// elements so expanded documents compare by their data content.
func stripActivationState(n *xmltree.Node) {
	var kept []*xmltree.Node
	for _, c := range n.Children {
		if c.Kind == xmltree.ElementNode && c.Label == "sc" {
			continue
		}
		if c.Kind == xmltree.ElementNode {
			stripActivationState(c)
		}
		kept = append(kept, c)
	}
	n.Children = kept
}

// Equivalent implements the ≡ of §2.3 operationally: both trees are
// installed as scratch documents on the peer, expanded to fixpoint
// (budgeted), the sc markers removed, and the results compared under
// the unordered tree equality. A false result with reached=false means
// the budget expired before a fixpoint — the comparison is then only
// an approximation, as the underlying problem is undecidable in
// general (the paper cites [5] for the formal treatment).
func (a *Activator) Equivalent(t1, t2 *xmltree.Node, maxRounds int) (equal bool, reached bool, err error) {
	names := [2]string{"x:equiv-probe-1", "x:equiv-probe-2"}
	trees := [2]*xmltree.Node{xmltree.DeepCopy(t1), xmltree.DeepCopy(t2)}
	reached = true
	var expanded [2]*xmltree.Node
	for i := range names {
		if err := a.Peer.InstallDocument(names[i], trees[i]); err != nil {
			return false, false, err
		}
		defer a.Peer.RemoveDocument(names[i])
		_, ok, err := a.Fixpoint(names[i], maxRounds)
		if err != nil {
			return false, false, err
		}
		if !ok {
			reached = false
		}
		// Expansion publishes new epochs; the installed pointer is the
		// pre-activation snapshot, so fetch the newest root to compare.
		if expanded[i], err = a.root(names[i]); err != nil {
			return false, false, err
		}
	}
	c1 := xmltree.DeepCopy(expanded[0])
	c2 := xmltree.DeepCopy(expanded[1])
	stripActivationState(c1)
	stripActivationState(c2)
	return xmltree.Equal(c1, c2), reached, nil
}
