// Federation control verbs. The placement machinery was, until the
// cluster layer, actuated in-process: a placement.Controller calling
// its view.Manager directly. Across deployments those calls become
// wire verbs — membership (HELLO/BYE), demand collection (DEMAND),
// actuation (MIGRATE/REPLICATE/DROPVIEW/ACCEPTVIEW) and a manual round
// trigger (STEP) — so the coordinator in internal/cluster drives real
// axmlpeer processes over TCP. This file holds the two role interfaces
// (CoordinatorControl, MemberControl), the XML codecs for the verb
// payloads, the server-side handlers and the client-side methods.
//
// Query forwarding rides the same layer: a member that receives a
// query over a document it does not host forwards it (one hop, marked
// +fwd) to the member that does — the federated read path that makes a
// migrated view transparently reachable from every member.

package wire

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"axml/internal/netsim"
	"axml/internal/placement"
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/xmltree"
)

// CoordinatorControl answers the coordinator-side federation verbs
// (HELLO, BYE, STEP, and the cluster-wide half of PLACEMENTS); a
// cluster.Coordinator implements it.
type CoordinatorControl interface {
	// Hello registers (or refreshes) a member and returns the current
	// membership, the caller included.
	Hello(info MemberInfo) ([]MemberInfo, error)
	// Bye deregisters a member that is shutting down cleanly.
	Bye(id string) error
	// Step runs one coordinator placement round and returns its
	// decisions.
	Step(ctx context.Context) ([]placement.Decision, error)
	// ClusterPlacements returns the coordinator's aggregated
	// cluster-wide placement map and decision log.
	ClusterPlacements() (placements []view.PlacementInfo, decisions []placement.Decision)
}

// MemberControl answers the member-side federation verbs (DEMAND,
// MIGRATE/REPLICATE, DROPVIEW, ACCEPTVIEW); a cluster.Member
// implements it.
type MemberControl interface {
	// Demand reports this deployment's placement demand export.
	Demand(ctx context.Context) (placement.Export, error)
	// MigrateView ships the named view to another member (keep=false
	// drops the local copy after a successful landing — a migrate;
	// keep=true retains it — a replicate).
	MigrateView(ctx context.Context, name, targetID, targetAddr string, keep bool) error
	// DropView drops this deployment's copy of the named view.
	DropView(name string) error
	// AcceptView lands a view shipped from another member.
	AcceptView(ctx context.Context, name, query, origin string, root *xmltree.Node) error
}

// Forwarder routes a query over a document this deployment does not
// host to the member that does. ok=false means the forwarder has no
// route for it and the original error stands.
type Forwarder interface {
	ForwardQuery(ctx context.Context, src string) (rows *session.Rows, ok bool, err error)
}

// MemberInfo describes one deployment to the coordinator: its identity,
// dial address, and what it hosts.
type MemberInfo struct {
	ID    string
	Addr  string
	Docs  []string
	Views []string
}

// ToXML renders the member descriptor as an x:member element.
func (m MemberInfo) ToXML() *xmltree.Node {
	root := xmltree.E("x:member",
		xmltree.A("id", m.ID),
		xmltree.A("addr", m.Addr))
	for _, d := range m.Docs {
		root.AppendChild(xmltree.E("doc", xmltree.A("name", d)))
	}
	for _, v := range m.Views {
		root.AppendChild(xmltree.E("view", xmltree.A("name", v)))
	}
	return root
}

// MemberInfoFromXML parses an x:member element.
func MemberInfoFromXML(root *xmltree.Node) (MemberInfo, error) {
	if root == nil || root.Label != "x:member" {
		return MemberInfo{}, fmt.Errorf("wire: not an x:member element")
	}
	var m MemberInfo
	m.ID, _ = root.Attr("id")
	m.Addr, _ = root.Attr("addr")
	if m.ID == "" {
		return MemberInfo{}, fmt.Errorf("wire: member without id")
	}
	for _, ch := range root.ChildElements() {
		name, _ := ch.Attr("name")
		switch ch.Label {
		case "doc":
			m.Docs = append(m.Docs, name)
		case "view":
			m.Views = append(m.Views, name)
		}
	}
	return m, nil
}

// decisionToXML renders one placement decision (PLACEMENTS and STEP
// replies share the element).
func decisionToXML(d placement.Decision) *xmltree.Node {
	return xmltree.E("decision",
		xmltree.A("round", fmt.Sprint(d.Round)),
		xmltree.A("view", d.View),
		xmltree.A("action", d.Action),
		xmltree.A("from", string(d.From)),
		xmltree.A("to", string(d.To)),
		xmltree.A("gain", strconv.FormatFloat(d.GainPerRound, 'g', -1, 64)),
		xmltree.A("onetime", strconv.FormatFloat(d.OneTime, 'g', -1, 64)),
		xmltree.A("reason", d.Reason),
		xmltree.A("summary", d.String()))
}

func decisionFromXML(ch *xmltree.Node) placement.Decision {
	var d placement.Decision
	round, _ := ch.Attr("round")
	d.Round, _ = strconv.Atoi(round)
	d.View, _ = ch.Attr("view")
	d.Action, _ = ch.Attr("action")
	from, _ := ch.Attr("from")
	d.From = netsim.PeerID(from)
	to, _ := ch.Attr("to")
	d.To = netsim.PeerID(to)
	gain, _ := ch.Attr("gain")
	d.GainPerRound, _ = strconv.ParseFloat(gain, 64)
	onetime, _ := ch.Attr("onetime")
	d.OneTime, _ = strconv.ParseFloat(onetime, 64)
	d.Reason, _ = ch.Attr("reason")
	return d
}

// wrongRole is the x:error for a federation verb whose role (the
// Coordinator or Member field) this server does not play.
func (s *Server) wrongRole(verb, role string) string {
	if s.Coordinator == nil && s.Member == nil {
		return errReply(fmt.Errorf("%s: this peer is not part of a federation", verb))
	}
	return errReply(fmt.Errorf("%s is a %s verb; this peer is not a %s", verb, role, role))
}

func (s *Server) doHello(rest string) string {
	if s.Coordinator == nil {
		return s.wrongRole("HELLO", "coordinator")
	}
	root, err := xmltree.Parse(strings.TrimSpace(rest))
	if err != nil {
		return errReply(fmt.Errorf("HELLO: %w", err))
	}
	info, err := MemberInfoFromXML(root)
	if err != nil {
		return errReply(err)
	}
	members, err := s.Coordinator.Hello(info)
	if err != nil {
		return errReply(err)
	}
	reply := xmltree.E("x:members")
	for _, m := range members {
		reply.AppendChild(m.ToXML())
	}
	return xmltree.Serialize(reply)
}

func (s *Server) doBye(rest string) string {
	if s.Coordinator == nil {
		return s.wrongRole("BYE", "coordinator")
	}
	id := strings.TrimSpace(rest)
	if id == "" {
		return errReply(fmt.Errorf("BYE requires a member id"))
	}
	if err := s.Coordinator.Bye(id); err != nil {
		return errReply(err)
	}
	return "<x:ok/>"
}

func (s *Server) doDemand() string {
	if s.Member == nil {
		return s.wrongRole("DEMAND", "member")
	}
	e, err := s.Member.Demand(context.Background())
	if err != nil {
		return errReply(err)
	}
	return xmltree.Serialize(e.ToXML())
}

// doMigrate handles MIGRATE (keep=false) and REPLICATE (keep=true):
// "<view> <target-member-id> <target-addr>".
func (s *Server) doMigrate(rest string, keep bool) string {
	verb := "MIGRATE"
	if keep {
		verb = "REPLICATE"
	}
	if s.Member == nil {
		return s.wrongRole(verb, "member")
	}
	f := strings.Fields(rest)
	if len(f) != 3 {
		return errReply(fmt.Errorf("%s requires <view> <target-id> <target-addr>", verb))
	}
	if err := s.Member.MigrateView(context.Background(), f[0], f[1], f[2], keep); err != nil {
		return errReply(err)
	}
	return "<x:ok/>"
}

func (s *Server) doDropView(rest string) string {
	if s.Member == nil {
		return s.wrongRole("DROPVIEW", "member")
	}
	name := strings.TrimSpace(rest)
	if name == "" {
		return errReply(fmt.Errorf("DROPVIEW requires a view name"))
	}
	if err := s.Member.DropView(name); err != nil {
		return errReply(err)
	}
	return "<x:ok/>"
}

// doAcceptView lands a shipped view: "<name> <x:ship query=… origin=…>
// <tree/></x:ship>". The whole payload arrives on one line, so the
// landing is all-or-nothing: a connection that dies mid-ship delivers
// no line and nothing happens here.
func (s *Server) doAcceptView(rest string) string {
	if s.Member == nil {
		return s.wrongRole("ACCEPTVIEW", "member")
	}
	name, payload, ok := strings.Cut(rest, " ")
	if !ok || name == "" {
		return errReply(fmt.Errorf("ACCEPTVIEW requires a name and an x:ship payload"))
	}
	ship, err := xmltree.Parse(payload)
	if err != nil {
		return errReply(fmt.Errorf("ACCEPTVIEW: %w", err))
	}
	if ship.Label != "x:ship" {
		return errReply(fmt.Errorf("ACCEPTVIEW: payload is %q, want x:ship", ship.Label))
	}
	query, _ := ship.Attr("query")
	origin, _ := ship.Attr("origin")
	trees := ship.ChildElements()
	if len(trees) != 1 {
		return errReply(fmt.Errorf("ACCEPTVIEW: x:ship carries %d trees, want 1", len(trees)))
	}
	root := trees[0]
	root.Parent = nil
	if err := s.Member.AcceptView(context.Background(), name, query, origin, root); err != nil {
		return errReply(err)
	}
	return okCount(1)
}

func (s *Server) doStep() string {
	if s.Coordinator == nil {
		return s.wrongRole("STEP", "coordinator")
	}
	decisions, err := s.Coordinator.Step(context.Background())
	if err != nil {
		return errReply(err)
	}
	reply := xmltree.E("x:decisions")
	for _, d := range decisions {
		reply.AppendChild(decisionToXML(d))
	}
	return xmltree.Serialize(reply)
}

// Hello registers this deployment with a coordinator and returns the
// membership.
func (c *Client) Hello(ctx context.Context, info MemberInfo) ([]MemberInfo, error) {
	root, err := c.roundTrip(ctx, "HELLO "+xmltree.Serialize(info.ToXML()))
	if err != nil {
		return nil, err
	}
	var members []MemberInfo
	for _, ch := range root.ChildElementsByLabel("x:member") {
		m, err := MemberInfoFromXML(ch)
		if err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	return members, nil
}

// Bye deregisters a member at the coordinator.
func (c *Client) Bye(ctx context.Context, id string) error {
	_, err := c.roundTrip(ctx, "BYE "+id)
	return err
}

// Demand fetches the server deployment's placement demand export.
func (c *Client) Demand(ctx context.Context) (placement.Export, error) {
	root, err := c.roundTrip(ctx, "DEMAND")
	if err != nil {
		return placement.Export{}, err
	}
	return placement.ExportFromXML(root)
}

// MigrateView tells the server (which holds the view) to ship it to
// the target member: keep=false is a migrate (source drops its copy),
// keep=true a replicate.
func (c *Client) MigrateView(ctx context.Context, name, targetID, targetAddr string, keep bool) error {
	verb := "MIGRATE"
	if keep {
		verb = "REPLICATE"
	}
	_, err := c.roundTrip(ctx, fmt.Sprintf("%s %s %s %s", verb, name, targetID, targetAddr))
	return err
}

// DropViewPlacement tells the server to drop its copy of the view.
func (c *Client) DropViewPlacement(ctx context.Context, name string) error {
	_, err := c.roundTrip(ctx, "DROPVIEW "+name)
	return err
}

// AcceptView lands a materialized view at the server: the defining
// query, the owning member and the whole stored tree travel in one
// x:ship line.
func (c *Client) AcceptView(ctx context.Context, name, query, origin string, root *xmltree.Node) error {
	ship := xmltree.E("x:ship",
		xmltree.A("query", query),
		xmltree.A("origin", origin))
	ship.AppendChild(xmltree.DeepCopy(root))
	_, err := c.roundTrip(ctx, "ACCEPTVIEW "+name+" "+xmltree.Serialize(ship))
	return err
}

// Step asks a coordinator for one placement round and returns the
// decisions it took.
func (c *Client) Step(ctx context.Context) ([]placement.Decision, error) {
	root, err := c.roundTrip(ctx, "STEP")
	if err != nil {
		return nil, err
	}
	var out []placement.Decision
	for _, ch := range root.ChildElementsByLabel("decision") {
		out = append(out, decisionFromXML(ch))
	}
	return out, nil
}
