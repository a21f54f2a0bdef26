package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"axml/internal/gendoc"
	"axml/internal/netsim"
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/service"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// CostModel parametrizes the virtual compute-time accounting. Network
// costs live in netsim; these cover local query processing, so that
// rule (10) (query delegation) has a measurable trade-off.
type CostModel struct {
	// QueryMsPerNode is the virtual milliseconds charged per node of
	// query input (documents and arguments) plus output.
	QueryMsPerNode float64
	// ActivateMs is a fixed charge per service-call activation.
	ActivateMs float64
}

// DefaultCost is a laptop-scale profile: 2 µs per node, 0.2 ms per
// call activation.
var DefaultCost = CostModel{QueryMsPerNode: 0.002, ActivateMs: 0.2}

// System is an AXML system: a set of peers connected by a network,
// plus the catalog of generic documents and services. Its state Σ
// (paper §3.3) is the union of all peers' documents and services.
type System struct {
	Net      *netsim.Network
	Generics *gendoc.Catalog
	Cost     CostModel

	mu      sync.RWMutex
	peers   map[netsim.PeerID]*peer.Peer
	factors map[netsim.PeerID]float64 // per-peer compute slowdown factor
	subs    []*stream
	wg      sync.WaitGroup // the streams' wake goroutines

	replyParses atomic.Int64 // see ReplyParses
}

// NewSystem creates a system over the given network.
func NewSystem(net *netsim.Network) *System {
	return &System{
		Net:      net,
		Generics: gendoc.NewCatalog(nil),
		Cost:     DefaultCost,
		peers:    map[netsim.PeerID]*peer.Peer{},
		factors:  map[netsim.PeerID]float64{},
	}
}

// ReplyParses reports how many times the system's peers have parsed a
// reply from another peer, or one of its rows, into trees. A delegated
// row that is only passed on, to a client or to a further peer, is
// never parsed and adds nothing.
func (s *System) ReplyParses() int64 { return s.replyParses.Load() }

// AddPeer creates, registers and returns a new peer.
func (s *System) AddPeer(id netsim.PeerID) (*peer.Peer, error) {
	if id == AnyPeer {
		return nil, fmt.Errorf("core: %q is reserved", AnyPeer)
	}
	p := peer.New(id)
	s.mu.Lock()
	if _, dup := s.peers[id]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: peer %q already exists", id)
	}
	s.peers[id] = p
	s.mu.Unlock()
	if err := s.Net.Register(id, &peerHandler{sys: s, peer: p}); err != nil {
		s.mu.Lock()
		delete(s.peers, id)
		s.mu.Unlock()
		return nil, err
	}
	return p, nil
}

// MustAddPeer is AddPeer that panics on error (setup code).
func (s *System) MustAddPeer(id netsim.PeerID) *peer.Peer {
	p, err := s.AddPeer(id)
	if err != nil {
		panic(err)
	}
	return p
}

// Peer resolves a peer by ID.
func (s *System) Peer(id netsim.PeerID) (*peer.Peer, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.peers[id]
	return p, ok
}

// Peers lists the peer IDs in ascending order: the rewrite rules and
// the estimator enumerate alternatives over it, and equal-cost plans
// must tie-break the same way on every run.
func (s *System) Peers() []netsim.PeerID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]netsim.PeerID, 0, len(s.peers))
	for id := range s.peers {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// RegisterGauges registers the system's sampled metrics in reg: the
// simulated network's totals, and MVCC epoch health across all peers —
// how many historical epochs readers currently pin and the age of the
// oldest pin (a stuck count or a climbing age is a leaked or wedged
// reader keeping store history alive). Registration is idempotent.
func (s *System) RegisterGauges(reg *obs.Registry) {
	reg.Gauge("net.messages_total", func() int64 { m, _, _ := s.Net.Totals(); return m })
	reg.Gauge("net.bytes_total", func() int64 { _, b, _ := s.Net.Totals(); return b })
	reg.Gauge("net.max_vt_ms", func() int64 { _, _, vt := s.Net.Totals(); return int64(vt) })
	reg.Gauge("peer.epochs.pinned", func() int64 {
		var total int64
		for _, id := range s.Peers() {
			if p, ok := s.Peer(id); ok {
				total += int64(p.PinnedEpochs())
			}
		}
		return total
	})
	reg.Gauge("peer.epochs.oldest_pin_ms", func() int64 {
		var oldest int64
		for _, id := range s.Peers() {
			if p, ok := s.Peer(id); ok {
				if ms := p.OldestPinAge().Milliseconds(); ms > oldest {
					oldest = ms
				}
			}
		}
		return oldest
	})
}

// SetComputeFactor sets a slowdown multiplier for a peer's compute
// costs (1 = nominal; 4 = four times slower). Models loaded or weak
// peers for the delegation experiments.
func (s *System) SetComputeFactor(id netsim.PeerID, f float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.factors[id] = f
}

// ComputeFactor returns the compute slowdown multiplier of a peer
// (1 when unset). The optimizer's cost model reads it.
func (s *System) ComputeFactor(id netsim.PeerID) float64 { return s.computeFactor(id) }

func (s *System) computeFactor(id netsim.PeerID) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if f, ok := s.factors[id]; ok && f > 0 {
		return f
	}
	return 1
}

// queryCost returns the virtual compute time of evaluating a query at
// a peer, given the total number of input and output nodes.
func (s *System) queryCost(at netsim.PeerID, nodes int) float64 {
	return s.Cost.QueryMsPerNode * float64(nodes) * s.computeFactor(at)
}

// Close stops every continuous stream and waits for its wakes.
func (s *System) Close() {
	s.mu.Lock()
	subs := s.subs
	s.subs = nil
	s.mu.Unlock()
	for _, st := range subs {
		st.unwatch()
		close(st.done)
	}
	s.wg.Wait()
}

// peerHandler adapts a peer to the netsim.Handler interface and
// implements the wire protocol:
//
//	"eval"     Call  body = expression XML   → "result" forest
//	"ship"     Call  same as "eval"; tags data-landing transfers
//	"call"     Call  body = <x:call> … </x:call> → "result" forest
//	"deploy"   Call  body = <x:deploy>      → "ok"
//	"fetchq"   Call  body = <x:fetchq name>  → "query" text
type peerHandler struct {
	sys  *System
	peer *peer.Peer
	// replyHint is the length of the last eval reply, which sizes the
	// next one's buffer.
	replyHint atomic.Int64
}

func (h *peerHandler) HandleCall(msg netsim.Message, arriveVT float64) ([]byte, string, float64, error) {
	return h.HandleCallCtx(context.Background(), msg, arriveVT)
}

// HandleCallCtx implements netsim.CtxHandler: the caller's context
// reaches the nested evaluation, so deadlines propagate across
// delegation chains instead of stopping at the first hop.
func (h *peerHandler) HandleCallCtx(ctx context.Context, msg netsim.Message, arriveVT float64) ([]byte, string, float64, error) {
	switch msg.Kind {
	case "eval", "ship":
		// "ship" is the same protocol as "eval" — a serialized send
		// expression applied at this peer — tagged separately so link
		// accounting distinguishes data landing from delegated work.
		expr, err := ParseExprBytes(msg.Body)
		if err != nil {
			return nil, "", 0, err
		}
		// The handler-side span: the context arrived through
		// netsim.CallCtx carrying the caller's trace and current span,
		// so this span is a child of the remote "delegate"/"ship" span —
		// the hop boundary in the rendered tree.
		sctx, sp := obs.StartSpan(ctx, "eval", "")
		sp.SetNet("", string(h.peer.ID), arriveVT)
		reply, rows, doneVT, err := h.evalReply(sctx, expr, arriveVT)
		if err != nil {
			sp.Fail(err)
			sp.End()
			return nil, "", 0, err
		}
		sp.EndVTAt(doneVT)
		sp.AddRows(int64(rows))
		sp.End()
		return reply, "result", doneVT, nil
	case "call":
		return h.handleServiceCall(ctx, msg, arriveVT)
	case "deploy":
		return h.handleDeploy(msg, arriveVT)
	case "fetchq":
		return h.handleFetchQuery(msg, arriveVT)
	default:
		return nil, "", 0, fmt.Errorf("core: peer %s: unknown call kind %q", h.peer.ID, msg.Kind)
	}
}

// evalReply evaluates a shipped expression at the handler's peer and
// writes its result forest into the reply as the row cursor yields it:
// serializeForest's bytes, with no tree copied or collected on the way.
// A query's rows are nodes of the run's pinned epoch, encoded where
// they stand; the rows of a reply from a further peer are copied as
// they came. The buffer starts at the size of the previous reply, plus
// a quarter, so a reply of a repeated shape is written without growing
// it. It returns the reply, its row count and its completion time.
func (h *peerHandler) evalReply(ctx context.Context, e Expr, vt float64) ([]byte, int, float64, error) {
	cur, err := h.sys.evalCursor(ctx, h.peer.ID, e, vt)
	if err != nil {
		return nil, 0, 0, err
	}
	defer cur.Close()
	hint := int(h.replyHint.Load())
	b := append(make([]byte, 0, hint+hint/4+len(forestOpen)+len(forestClose)), forestOpen...)
	rows := 0
	for {
		r, err := cur.NextRow()
		if err != nil {
			return nil, 0, 0, err
		}
		if r.IsZero() {
			break
		}
		b = r.appendTo(b)
		rows++
	}
	if rows == 0 {
		b = append(b[:0], emptyForest...)
	} else {
		b = append(b, forestClose...)
	}
	h.replyHint.Store(int64(len(b)))
	return b, rows, cur.VT(), nil
}

// ApplyCall applies the named service of provider to argument forests
// the way a call reaches its provider (definition (6), provider side):
// the service is looked up, the arguments are checked against its
// signature, and a builtin runs its Go function or a declarative
// service its query. It returns the response forest and the compute
// cost.
func (s *System) ApplyCall(ctx context.Context, provider netsim.PeerID, name string, args [][]*xmltree.Node) ([]*xmltree.Node, float64, error) {
	p, ok := s.Peer(provider)
	if !ok {
		return nil, 0, fmt.Errorf("core: unknown peer %q", provider)
	}
	svc, ok := p.Service(name)
	if !ok {
		return nil, 0, fmt.Errorf("core: peer %s: %w: %q", provider, ErrNoSuchService, name)
	}
	if err := svc.Sig.CheckInput(args); err != nil {
		return nil, 0, fmt.Errorf("core: call %s@%s: %w", name, provider, err)
	}
	return s.applyService(ctx, p, svc, args)
}

// handleServiceCall applies a service to shipped parameters
// (definition (6), provider side) and returns the response forest.
// Forward-list delivery is done by the caller side of the protocol in
// eval.go so that shipping costs are attributed to the provider→target
// links.
func (h *peerHandler) handleServiceCall(ctx context.Context, msg netsim.Message, arriveVT float64) ([]byte, string, float64, error) {
	root, err := xmltree.Parse(string(msg.Body))
	if err != nil {
		return nil, "", 0, fmt.Errorf("core: bad call body: %w", err)
	}
	name, _ := root.Attr("service")
	var args [][]*xmltree.Node
	for _, p := range root.ChildElementsByLabel("x:param") {
		args = append(args, p.ChildElements())
	}
	out, cost, err := h.sys.ApplyCall(ctx, h.peer.ID, name, args)
	if err != nil {
		return nil, "", 0, err
	}
	doneVT := arriveVT + cost

	// Explicit forward list: ship results directly from this provider
	// to each target and reply with an empty forest (rule (15): no
	// need to ship results back to the caller).
	var forwards []peer.NodeRef
	for _, f := range root.ChildElementsByLabel("x:forw") {
		refStr, _ := f.Attr("ref")
		ref, err := peer.ParseNodeRef(refStr)
		if err != nil {
			return nil, "", 0, err
		}
		forwards = append(forwards, ref)
	}
	if len(forwards) > 0 {
		for _, ref := range forwards {
			if _, err := h.sys.shipData(ctx, h.peer.ID, ref, out, doneVT); err != nil {
				return nil, "", 0, err
			}
		}
		return serializeForest(nil), "result", doneVT, nil
	}
	return serializeForest(out), "result", doneVT, nil
}

func (h *peerHandler) handleDeploy(msg netsim.Message, arriveVT float64) ([]byte, string, float64, error) {
	root, err := xmltree.Parse(string(msg.Body))
	if err != nil {
		return nil, "", 0, fmt.Errorf("core: bad deploy body: %w", err)
	}
	name, _ := root.Attr("name")
	q, err := xquery.Parse(root.TextContent())
	if err != nil {
		return nil, "", 0, fmt.Errorf("core: deploy %q: %w", name, err)
	}
	svc := &service.Service{Name: name, Provider: h.peer.ID, Body: q}
	if err := h.peer.RegisterService(svc); err != nil {
		return nil, "", 0, err
	}
	return []byte("<x:ok/>"), "ok", arriveVT, nil
}

// handleFetchQuery returns a query's text. Two modes: by service name
// (body <x:fetchq name="svc"/>), or echo (body carries an <x:text>
// child) — the latter models shipping an inline query q@p whose text
// the requester already carries in its plan; the reply charges the
// transfer of the query itself, as definition (7) requires.
func (h *peerHandler) handleFetchQuery(msg netsim.Message, arriveVT float64) ([]byte, string, float64, error) {
	root, err := xmltree.Parse(string(msg.Body))
	if err != nil {
		return nil, "", 0, err
	}
	if text := root.FirstChildElement("x:text"); text != nil {
		return []byte(text.TextContent()), "query", arriveVT, nil
	}
	name, _ := root.Attr("name")
	svc, ok := h.peer.Service(name)
	if !ok {
		return nil, "", 0, fmt.Errorf("core: peer %s: %w: %q", h.peer.ID, ErrNoSuchService, name)
	}
	if !svc.Declarative() {
		return nil, "", 0, fmt.Errorf("core: peer %s: service %q is not declarative", h.peer.ID, name)
	}
	return []byte(svc.Body.String()), "query", arriveVT, nil
}
