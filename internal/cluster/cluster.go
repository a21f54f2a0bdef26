// Package cluster is the federated control plane: adaptive view
// placement across real axmlpeer processes over TCP, where
// internal/placement runs it across simulated peers in one process.
//
// A control action is a builtin service of the peer whose role
// provides it (paper §2.1: a peer asks another to act by calling its
// service s@p), reached through the wire's one CALL verb. The names
// carry the reserved x: prefix; a process that does not play a role
// has no such service and answers no-such-service.
//
//	x:hello       <x:member id addr><doc name/>…</x:member>  → <x:members>   (coordinator)
//	x:bye         <x:member id/>                             → ()            (coordinator)
//	x:step        ()                                         → <x:decisions> (coordinator)
//	x:demand      ()                                         → <x:demand>    (member)
//	x:migrate     <x:move view to addr keep/>                → ()            (member)
//	x:drop-view   <x:view name/>                             → ()            (member)
//	x:accept-view <x:ship name query origin><tree/></x:ship> → ()            (member)
//
// A Member wraps one deployment (one axmlpeer process): it heartbeats
// x:hello, exports its placement.Observer aggregates on x:demand
// (selectivities estimated locally, where the data lives), ships a view
// to another member's x:accept-view on x:migrate, and forwards queries
// over documents another member hosts (one hop, marked +fwd so demand
// is attributed once and routes cannot loop).
//
// The Coordinator is the membership seen as a placement.Deployment, and
// runs the one placement.Controller over itself: to observe it calls
// every member's x:demand (per-call timeouts, bounded retry with
// backoff) and merges the exports into per-(view, member) loads; to act
// it calls x:migrate or x:drop-view on the member holding the data.
// Rounds, cooldown, budgets, the decision log and the round trace are
// the controller's, exactly as in process. It fails open: an
// unreachable member degrades to its last-known demand, decayed each
// missed round, and gets a single attempt per round until it answers
// again.
//
// The Harness spawns real OS processes for tests.
//
// What this layer deliberately does not do yet: cross-deployment view
// maintenance. A view adopted from another member is a point-in-time
// snapshot, refreshed only by a re-ship (the next replicate to the
// same member swaps the content in place); gossip-style delta
// propagation between deployments is the natural follow-on.
package cluster

import (
	"context"
	"fmt"
	"time"

	"axml/internal/peer"
	"axml/internal/service"
	"axml/internal/wire"
	"axml/internal/xmltree"
)

// dial opens a connection with timeout bounding both the connect and
// every read and write on it.
func dial(addr string, timeout time.Duration) (*wire.Client, error) {
	return wire.Dial(addr, wire.WithDialTimeout(timeout), wire.WithIOTimeout(timeout))
}

// call invokes one control service on a fresh connection: dial, CALL
// under a context bounded by the same timeout, close. It returns the
// reply's one tree, nil for an empty reply. CALL is never replayed, so
// a lost reply cannot apply an action twice.
func call(ctx context.Context, addr string, timeout time.Duration,
	name string, params ...*xmltree.Node) (*xmltree.Node, error) {
	cl, err := dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	out, err := cl.Call(ctx, name, params...)
	if err != nil || len(out) == 0 {
		return nil, err
	}
	if len(out) > 1 {
		return nil, fmt.Errorf("cluster: %s replied %d trees, want 1", name, len(out))
	}
	return out[0], nil
}

// register adds a role's control services to the peer it serves.
func register(p *peer.Peer, services map[string]service.BuiltinFunc) error {
	for name, fn := range services {
		if err := p.RegisterService(&service.Service{Name: name, Provider: p.ID, Builtin: fn}); err != nil {
			return err
		}
	}
	return nil
}

// MemberInfo describes one deployment to the coordinator: its identity,
// dial address, and the base documents it hosts. Its views reach the
// coordinator through demand exports.
type MemberInfo struct {
	ID   string
	Addr string
	Docs []string
}

// toXML renders the member descriptor as an x:member element.
func (m MemberInfo) toXML() *xmltree.Node {
	root := xmltree.E("x:member",
		xmltree.A("id", m.ID),
		xmltree.A("addr", m.Addr))
	for _, d := range m.Docs {
		root.AppendChild(xmltree.E("doc", xmltree.A("name", d)))
	}
	return root
}

// memberInfoFromXML parses an x:member element.
func memberInfoFromXML(root *xmltree.Node) (MemberInfo, error) {
	if root == nil || root.Label != "x:member" {
		return MemberInfo{}, fmt.Errorf("cluster: not an x:member element")
	}
	var m MemberInfo
	m.ID, _ = root.Attr("id")
	m.Addr, _ = root.Attr("addr")
	if m.ID == "" {
		return MemberInfo{}, fmt.Errorf("cluster: member without id")
	}
	for _, ch := range root.ChildElementsByLabel("doc") {
		name, _ := ch.Attr("name")
		m.Docs = append(m.Docs, name)
	}
	return m, nil
}
