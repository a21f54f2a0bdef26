package core

import (
	"context"
	"fmt"
	"strconv"

	"axml/internal/netsim"
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/service"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// Eval evaluates expression e at peer at (the "eval@p(e)" of §3.2),
// applying definitions (1)–(9). It returns the result forest produced
// at the evaluation site, the virtual completion time, and records
// every cross-peer transfer in the system's network statistics.
//
// Eval never gives up mid-plan; use EvalContext to bound an
// evaluation by a deadline or cancellation.
func (s *System) Eval(at netsim.PeerID, e Expr) (*Result, error) {
	return s.eval(context.Background(), at, e, 0)
}

// EvalContext is Eval under a context: the context is checked before
// every local step, inside every query's tuple scan, and threaded
// through every cross-peer transfer, so an expired deadline stops the
// plan where it stands — including work already delegated to remote
// peers — and surfaces as ErrCanceled. No further remote ships are
// started once the context is done.
func (s *System) EvalContext(ctx context.Context, at netsim.PeerID, e Expr) (*Result, error) {
	return s.eval(ctx, at, e, 0)
}

// EvalFrom is Eval starting at virtual time startVT; schedulers use it
// to chain dependent evaluations (e.g. dissemination trees where a
// child transfer may only start once the parent's copy has arrived).
func (s *System) EvalFrom(at netsim.PeerID, e Expr, startVT float64) (*Result, error) {
	return s.eval(context.Background(), at, e, startVT)
}

// eval is the recursive evaluator; vt is the virtual time at which the
// evaluation starts at peer at.
func (s *System) eval(ctx context.Context, at netsim.PeerID, e Expr, vt float64) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	p, ok := s.Peer(at)
	if !ok {
		return nil, fmt.Errorf("core: unknown peer %q", at)
	}
	switch v := e.(type) {
	case *Tree:
		return s.evalTree(ctx, p, v, vt)
	case *Doc:
		return s.evalDoc(ctx, p, v, vt)
	case *Query:
		return s.evalQuery(ctx, p, v, vt)
	case *QueryVal:
		if v.At != at {
			// A query value elsewhere must be fetched (charged).
			return s.delegate(ctx, at, v.At, v, vt)
		}
		return &Result{VT: vt}, nil
	case *Send:
		return s.evalSend(ctx, p, v, vt)
	case *Relay:
		return s.evalRelay(ctx, p, v, vt)
	case *ServiceCall:
		return s.evalServiceCall(ctx, p, v, vt)
	case *EvalAt:
		if v.At == at {
			return s.eval(ctx, at, v.E, vt)
		}
		return s.delegate(ctx, at, v.At, v.E, vt)
	default:
		return nil, fmt.Errorf("core: unknown expression type %T", e)
	}
}

// delegate ships an expression to peer remote for evaluation and
// returns the shipped-back result (definition (5) generalized; rules
// (14), (15)). The expression serialization and the reply forest are
// both charged to the network.
func (s *System) delegate(ctx context.Context, from, remote netsim.PeerID, e Expr, vt float64) (*Result, error) {
	reply, doneVT, err := s.delegateReply(ctx, from, remote, e, vt)
	if err != nil {
		return nil, err
	}
	forest, err := s.parseForest(reply)
	if err != nil {
		return nil, err
	}
	return &Result{Forest: forest, VT: doneVT}, nil
}

// delegateReply is delegate up to the reply: the <x:forest> bytes the
// remote peer answered with, not yet parsed, and the virtual time they
// arrived.
func (s *System) delegateReply(ctx context.Context, from, remote netsim.PeerID, e Expr, vt float64) ([]byte, float64, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, 0, err
	}
	var name string
	if obs.FromContext(ctx) != nil {
		name = e.String() // the span's name, rendered only for a traced call
	}
	body := SerializeExpr(e)
	reply, kind, doneVT, err := s.tracedCall(ctx, "delegate", name, netsim.Message{
		From: from, To: remote, Kind: "eval", Body: body, VT: vt,
	})
	if err != nil {
		return nil, 0, wrapCanceled(ctx, err)
	}
	if kind != "result" {
		return nil, 0, fmt.Errorf("core: unexpected reply kind %q", kind)
	}
	return reply, doneVT, nil
}

// tracedCall is Net.CallCtx under a tracing span: when the context
// carries an obs.Trace, the call gets a span named after its phase,
// attributed to the from→to link, covering the call's virtual-time
// interval and — for cross-peer calls that succeed — carrying exactly
// the byte totals netsim accounted for the two legs (request out,
// reply in, each payload plus envelope overhead). Local calls and
// failed calls record no bytes, mirroring netsim's own accounting, so
// span bytes always reconcile with netsim.Stats per-link deltas. The
// span's context is what travels into the handler, which is how
// handler-side spans become children of this one across delegation
// hops. Without a trace the overhead is one context value lookup.
func (s *System) tracedCall(ctx context.Context, phase, name string, msg netsim.Message) (body []byte, kind string, vt float64, err error) {
	sctx, sp := obs.StartSpan(ctx, phase, name)
	if sp == nil {
		return s.Net.CallCtx(ctx, msg)
	}
	defer sp.End()
	sp.SetNet(string(msg.From), string(msg.To), msg.VT)
	body, kind, vt, err = s.Net.CallCtx(sctx, msg)
	if err != nil {
		sp.Fail(err)
		return body, kind, vt, err
	}
	sp.EndVTAt(vt)
	if msg.From != msg.To {
		sp.AddBytes(int64(msg.Size()), int64(len(body))+netsim.EnvelopeOverhead)
	}
	return body, kind, vt, err
}

// evalTree implements definitions (1), (5) and the sc-activation part
// of (6) for trees containing embedded service calls.
func (s *System) evalTree(ctx context.Context, p *peer.Peer, t *Tree, vt float64) (*Result, error) {
	if t.At != p.ID {
		// Definition (5): ask the owner to evaluate and ship the result.
		return s.delegate(ctx, p.ID, t.At, t, vt)
	}
	// Definition (1): copy the tree, activating embedded service calls.
	out, maxVT, err := s.expandTree(ctx, p, t.Node, vt)
	if err != nil {
		return nil, err
	}
	return &Result{Forest: out, VT: maxVT}, nil
}

// expandTree copies a tree, replacing each embedded sc element by the
// results of activating it (results with explicit forward lists
// contribute nothing locally). It returns the resulting forest: a
// plain node yields one tree; an sc root yields its call results.
func (s *System) expandTree(ctx context.Context, p *peer.Peer, n *xmltree.Node, vt float64) ([]*xmltree.Node, float64, error) {
	if n.Kind == xmltree.ElementNode && n.Label == "x:raw" {
		// Opaque carrier: data in transit is copied verbatim — embedded
		// service calls are NOT activated (activation is an explicit
		// decision in the AXML model, not a side effect of shipping).
		return []*xmltree.Node{xmltree.DeepCopy(n)}, vt, nil
	}
	if n.Kind == xmltree.ElementNode && n.Label == "sc" {
		call, err := ParseExpr(n)
		if err != nil {
			return nil, 0, fmt.Errorf("core: bad sc element: %w", err)
		}
		res, err := s.eval(ctx, p.ID, call, vt)
		if err != nil {
			return nil, 0, err
		}
		return res.Forest, res.VT, nil
	}
	if n.Kind != xmltree.ElementNode {
		return []*xmltree.Node{xmltree.DeepCopy(n)}, vt, nil
	}
	copyN := &xmltree.Node{Kind: n.Kind, Label: n.Label, Text: n.Text}
	copyN.Attrs = append(copyN.Attrs, n.Attrs...)
	maxVT := vt
	for _, c := range n.Children {
		sub, subVT, err := s.expandTree(ctx, p, c, vt)
		if err != nil {
			return nil, 0, err
		}
		if subVT > maxVT {
			maxVT = subVT
		}
		for _, sc := range sub {
			copyN.AppendChild(sc)
		}
	}
	return []*xmltree.Node{copyN}, maxVT, nil
}

// evalDoc implements document expressions: d@p yields the document's
// tree (remotely via definition (5)); d@any applies definition (9).
func (s *System) evalDoc(ctx context.Context, p *peer.Peer, d *Doc, vt float64) (*Result, error) {
	if d.At == AnyPeer {
		replica, err := s.Generics.ResolveDoc(p.ID, d.Name)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNoSuchDoc, err)
		}
		return s.evalDoc(ctx, p, &Doc{Name: replica.Doc, At: replica.At}, vt)
	}
	if d.At != p.ID {
		return s.delegate(ctx, p.ID, d.At, d, vt)
	}
	h := p.Snapshot()
	defer h.Release()
	root, err := h.Root(d.Name)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Result{Forest: []*xmltree.Node{xmltree.DeepCopy(root)}, VT: vt}, nil
}

// evalQuery implements definitions (2) and (7): evaluate the argument
// expressions, ship them (and the query, if defined elsewhere) to the
// evaluation site, then apply the query — by draining the row cursor a
// streaming consumer would pull from.
func (s *System) evalQuery(ctx context.Context, p *peer.Peer, q *Query, vt float64) (*Result, error) {
	cur, err := s.queryCursor(ctx, p, q, vt, true)
	if err != nil {
		return nil, err
	}
	out, err := collect(cur)
	if err != nil {
		return nil, err
	}
	return &Result{Forest: out, VT: cur.VT()}, nil
}

// collect drains a row cursor into a forest and closes it, whatever
// the outcome; a failure discards the rows before it. The forest is
// the caller's to keep when the cursor is owned (xquery.OwnedCursor),
// which every cursor drained here is.
func collect(cur xquery.Cursor) ([]*xmltree.Node, error) {
	defer cur.Close()
	var out []*xmltree.Node
	for {
		n, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if n == nil {
			return out, nil
		}
		out = append(out, n)
	}
}

// queryRun is the setup of a query application: arguments evaluated
// (and shipped) eagerly, documents resolved lazily through env. The
// row cursor (queryCursor) evaluates the body over it.
type queryRun struct {
	sys        *System
	p          *peer.Peer
	args       [][]*xmltree.Node
	env        *xquery.Env
	snap       *peer.Handle   // pinned epoch the run's local doc reads answer from
	ownSnap    bool           // run pinned snap itself (vs. WithDocSnapshot caller-owned)
	memo       xmltree.Budget // its rows' (Resolve)
	resolved   bool
	inputNodes int
	startVT    float64 // max arg-completion VT; doc fetches may push past it
	fetchVT    float64
}

// release drops the run's epoch pin. Idempotent (Handle.Release is),
// and a no-op for a caller-owned snapshot carried in via
// WithDocSnapshot — the caller releases that one.
func (r *queryRun) release() {
	if r.ownSnap {
		r.snap.Release()
	}
}

// finish charges the query's compute cost once the output size is
// known and returns the completion VT. It also releases the run's
// snapshot: the stream is over, the pinned epoch may be reclaimed.
func (r *queryRun) finish(outNodes int) float64 {
	r.release()
	maxVT := r.startVT
	if r.fetchVT > maxVT {
		maxVT = r.fetchVT
	}
	doneVT := maxVT + r.sys.queryCost(r.p.ID, r.inputNodes+outNodes)
	r.sys.Net.ObserveVT(doneVT)
	return doneVT
}

// prepareQuery performs everything of a query application short of
// running the query body: fetch the query text when defined elsewhere
// (definition (7)), evaluate and ship the arguments, and build the
// document-resolving environment (local store, then pickDoc, then
// naive whole-document fetch).
func (s *System) prepareQuery(ctx context.Context, p *peer.Peer, q *Query, vt float64) (*queryRun, error) {
	queryVT := vt
	if q.At != p.ID && q.At != "" {
		// Definition (7): the query itself must be shipped from its
		// home peer to the evaluation site. The fetch request is tiny;
		// the reply carries the query text, charging its transfer.
		fetchBody := xmltree.E("x:fetchq")
		fetchBody.AppendChild(xmltree.E("x:text", xmltree.T(q.Q.String())))
		_, _, fetchVT, err := s.tracedCall(ctx, "fetchq", string(q.At), netsim.Message{
			From: p.ID, To: q.At, Kind: "fetchq",
			Body: []byte(xmltree.Serialize(fetchBody)), VT: vt,
		})
		if err != nil {
			return nil, wrapCanceled(ctx, fmt.Errorf("core: fetching query from %s: %w", q.At, err))
		}
		queryVT = fetchVT
	}
	args := make([][]*xmltree.Node, len(q.Args))
	maxVT := queryVT
	inputNodes := 0
	// Rule (13): when ShareArgs is set, structurally identical argument
	// expressions are fetched once. The reuse serializes the duplicated
	// branches (as the paper notes), which the VT model reflects by
	// inheriting the first fetch's completion time.
	var shared map[string]*Result
	if q.ShareArgs {
		shared = map[string]*Result{}
	}
	for i, a := range q.Args {
		var res *Result
		var key string
		if shared != nil {
			key = string(SerializeExpr(a))
			if prev, ok := shared[key]; ok {
				res = prev
			}
		}
		if res == nil {
			r, err := s.eval(ctx, p.ID, a, queryVT)
			if err != nil {
				return nil, err
			}
			res = r
			if shared != nil {
				shared[key] = r
			}
		}
		args[i] = res.Forest
		if res.VT > maxVT {
			maxVT = res.VT
		}
		for _, n := range res.Forest {
			inputNodes += n.NodeCount()
		}
	}
	if q.Q.Arity() != len(args) {
		return nil, fmt.Errorf("core: query takes %d parameter(s), got %d args", q.Q.Arity(), len(args))
	}
	run := &queryRun{sys: s, p: p, args: args, inputNodes: inputNodes,
		startVT: maxVT, fetchVT: maxVT}
	// Pin the evaluation site's documents: every doc("name") the body
	// resolves locally answers from one epoch, so the query sees a
	// consistent store even while concurrent writers publish new epochs
	// mid-stream. A context-carried handle (WithDocSnapshot) extends the
	// same epoch across several statements; otherwise the run pins its
	// own and releases it in finish.
	if h := docSnapshotFrom(ctx, p); h != nil {
		run.snap = h
	} else {
		run.snap = p.Snapshot()
		run.ownSnap = true
	}
	// Resolve doc("name") references: local documents are free; a
	// document hosted elsewhere is fetched whole — the naive plan of
	// definition (7) that Example 1's pushdown improves on. Generic
	// classes resolve through pickDoc (definition (9)).
	run.env = &xquery.Env{Resolve: func(name string) (*xmltree.Node, error) {
		// Rows carry a root's memo budget (nil for a document fetched
		// from elsewhere) only while it is the one root the run reads.
		if b := run.snap.Budget(name); len(run.args) > 0 || run.resolved && b != run.memo {
			run.memo = nil
		} else {
			run.memo = b
		}
		run.resolved = true
		if root, err := run.snap.Root(name); err == nil {
			nodes, _ := run.snap.NodeCount(name) // name is in the snapshot
			run.inputNodes += nodes
			return root, nil
		}
		// Resolution order: the generics catalog (pickDoc, def (9))
		// takes priority — a registered equivalence class is the
		// declarative way to choose among replicas; otherwise fall
		// back to any peer hosting the name (naive def (7) fetch).
		var fetchExpr Expr
		if _, err := s.Generics.ResolveDoc(p.ID, name); err == nil {
			fetchExpr = &Doc{Name: name, At: AnyPeer}
		} else if hosts := s.peersHosting(name, p.ID); len(hosts) > 0 {
			fetchExpr = &Doc{Name: name, At: hosts[0]}
		} else {
			return nil, fmt.Errorf("core: no peer hosts document: %w: %q", ErrNoSuchDoc, name)
		}
		res, err := s.eval(ctx, p.ID, fetchExpr, run.startVT)
		if err != nil {
			return nil, err
		}
		if res.VT > run.fetchVT {
			run.fetchVT = res.VT
		}
		if len(res.Forest) != 1 {
			return nil, fmt.Errorf("core: document %q fetch returned %d trees", name, len(res.Forest))
		}
		run.inputNodes += res.Forest[0].NodeCount()
		return res.Forest[0], nil
	}, Index: run.snap}
	return run, nil
}

// evalSend implements definitions (3), (4) and (8).
func (s *System) evalSend(ctx context.Context, p *peer.Peer, snd *Send, vt float64) (*Result, error) {
	// Enforce the paper's well-formedness rule: the sender must own
	// the payload (sendp2→p1(x@p0) undefined for p2 ≠ p0).
	if home := payloadHome(snd.Payload); home != "" && home != p.ID && home != AnyPeer {
		return nil, fmt.Errorf("core: send at %s of payload located at %s is undefined (§3.2)", p.ID, home)
	}

	// Definition (8): shipping a query deploys it as a service.
	if qv, ok := snd.Payload.(*QueryVal); ok {
		dp, ok := snd.Dest.(DestPeer)
		if !ok {
			return nil, fmt.Errorf("core: query shipping requires a peer destination")
		}
		name := qv.Name
		if name == "" {
			name = fmt.Sprintf("sent-q-%s", p.ID)
		}
		body := xmltree.E("x:deploy", xmltree.A("name", name), xmltree.T(qv.Q.String()))
		_, _, doneVT, err := s.tracedCall(ctx, "deploy", name, netsim.Message{
			From: p.ID, To: dp.P, Kind: "deploy",
			Body: []byte(xmltree.Serialize(body)), VT: vt,
		})
		if err != nil {
			return nil, wrapCanceled(ctx, err)
		}
		return &Result{VT: doneVT, Deployed: &ServiceRef{Provider: dp.P, Name: name}}, nil
	}

	// Evaluate the payload locally first (definitions (3)/(4) operate
	// on the payload's value).
	res, err := s.eval(ctx, p.ID, snd.Payload, vt)
	if err != nil {
		return nil, err
	}

	switch d := snd.Dest.(type) {
	case DestPeer, DestNodes:
		return s.deliver(ctx, p.ID, snd.Dest, res.Forest, res.VT)
	case DestDoc:
		if len(res.Forest) != 1 {
			return nil, fmt.Errorf("core: installing document %q requires exactly one tree, got %d",
				d.Name, len(res.Forest))
		}
		remote, ok := s.Peer(d.At)
		if !ok {
			return nil, fmt.Errorf("core: unknown destination peer %q", d.At)
		}
		if d.At == p.ID {
			roots := unwrapRaw(res.Forest[0])
			if len(roots) != 1 {
				return nil, fmt.Errorf("core: installing document %q requires exactly one tree", d.Name)
			}
			if err := remote.InstallDocument(d.Name, roots[0]); err != nil {
				return nil, err
			}
			return &Result{VT: res.VT}, nil
		}
		// Ship the tree inside a self-installing send evaluated at the
		// destination (the payload is local there, so the install is
		// the local branch above). The x:raw carrier prevents embedded
		// service calls from activating in transit.
		_, _, doneVT, err := s.tracedCall(ctx, "ship", "install "+d.Name, netsim.Message{
			From: p.ID, To: d.At, Kind: "eval",
			Body: SerializeExpr(&Send{
				Dest:    DestDoc{Name: d.Name, At: d.At},
				Payload: &Tree{Node: wrapForest(res.Forest[:1]), At: d.At},
			}), VT: res.VT,
		})
		if err != nil {
			return nil, wrapCanceled(ctx, err)
		}
		return &Result{VT: doneVT}, nil
	default:
		return nil, fmt.Errorf("core: unknown destination type %T", snd.Dest)
	}
}

// evalRelay implements rule (12)'s relayed route: the payload value
// travels home → via₁ → … → viaₙ → dest, each hop charged separately.
func (s *System) evalRelay(ctx context.Context, p *peer.Peer, r *Relay, vt float64) (*Result, error) {
	if home := payloadHome(r.Payload); home != "" && home != p.ID && home != AnyPeer {
		return nil, fmt.Errorf("core: relay at %s of payload located at %s is undefined (§3.2)", p.ID, home)
	}
	res, err := s.eval(ctx, p.ID, r.Payload, vt)
	if err != nil {
		return nil, err
	}
	data := res.Forest
	currentPeer := p.ID
	currentVT := res.VT
	// Hop through intermediaries: each stop lands the data in a fresh
	// anchor and picks it up again (the "intermediary stop" of rule 12).
	for _, hop := range r.Via {
		hp, ok := s.Peer(hop)
		if !ok {
			return nil, fmt.Errorf("core: unknown relay peer %q", hop)
		}
		anchor := hp.FreshAnchor("x:hop")
		hvt, err := s.shipData(ctx, currentPeer, peer.NodeRef{Peer: hop, Node: anchor.ID}, data, currentVT)
		if err != nil {
			return nil, err
		}
		node, _ := hp.NodeByID(anchor.ID)
		data = xmltree.DeepCopyForest(node.Children)
		currentPeer = hop
		currentVT = hvt
	}
	return s.deliver(ctx, currentPeer, r.Dest, data, currentVT)
}

// deliver ships forest from peer from, starting at vt, to a peer or
// node destination: a peer gets it in a fresh anchor, each node of a
// DestNodes a shipment of its own, and the delivery is done when the
// latest shipment is.
func (s *System) deliver(ctx context.Context, from netsim.PeerID, dest Dest, forest []*xmltree.Node, vt float64) (*Result, error) {
	switch d := dest.(type) {
	case DestPeer:
		remote, ok := s.Peer(d.P)
		if !ok {
			return nil, fmt.Errorf("core: unknown destination peer %q", d.P)
		}
		anchor := remote.FreshAnchor("x:landing")
		ref := peer.NodeRef{Peer: d.P, Node: anchor.ID}
		doneVT, err := s.shipData(ctx, from, ref, forest, vt)
		if err != nil {
			return nil, err
		}
		return &Result{VT: doneVT, Anchors: []peer.NodeRef{ref}}, nil
	case DestNodes:
		maxVT := vt
		for _, ref := range d.Refs {
			doneVT, err := s.shipData(ctx, from, ref, forest, vt)
			if err != nil {
				return nil, err
			}
			maxVT = max(maxVT, doneVT)
		}
		return &Result{VT: maxVT}, nil
	default:
		return nil, fmt.Errorf("core: data is delivered to a peer or to nodes, not to a %T", dest)
	}
}

// payloadHome returns the location of a send payload's data, or ""
// when the payload is location-free.
func payloadHome(e Expr) netsim.PeerID {
	switch v := e.(type) {
	case *Tree:
		return v.At
	case *Doc:
		return v.At
	case *QueryVal:
		return v.At
	case *Query:
		return "" // applications are evaluated in place before sending
	default:
		return ""
	}
}

// ShipForest sends a forest from a peer to a node reference, adding
// each tree as a child of the target and charging the transfer to the
// network (definition (4)); a done context stops the ship before it is
// sent. View placements move their rows with it.
func (s *System) ShipForest(ctx context.Context, from netsim.PeerID, ref peer.NodeRef, forest []*xmltree.Node, vt float64) (float64, error) {
	return s.shipData(ctx, from, ref, forest, vt)
}

// shipData sends a forest to a node reference, adding each tree as a
// child of the target (definition (4)). Multi-tree forests travel in
// an x:batch carrier that is unwrapped on landing.
func (s *System) shipData(ctx context.Context, from netsim.PeerID, ref peer.NodeRef, forest []*xmltree.Node, vt float64) (float64, error) {
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	if ref.Peer == from {
		// Local landing: no network charge.
		target, ok := s.Peer(from)
		if !ok {
			return 0, fmt.Errorf("core: unknown peer %q", from)
		}
		if err := target.Write(func(tx *peer.Tx) error { return landForest(tx, ref.Node, forest) }); err != nil {
			return 0, err
		}
		s.Net.ObserveVT(vt)
		return vt, nil
	}
	// Use a Call so the delivery is synchronous and errors surface;
	// the reply is an empty ack whose size is the envelope overhead.
	// The "ship" kind marks the transfer as data landing (view
	// maintenance, forwarded results) in the per-link accounting, so
	// traffic observers can tell it apart from delegated evaluation.
	_, _, doneVT, err := s.tracedCall(ctx, "ship", string(ref.Peer), netsim.Message{
		From: from, To: ref.Peer, Kind: "ship",
		Body: SerializeExpr(&Send{
			Dest:    DestNodes{Refs: []peer.NodeRef{ref}},
			Payload: &Tree{Node: wrapForest(forest), At: ref.Peer},
		}), VT: vt,
	})
	if err != nil {
		return 0, wrapCanceled(ctx, err)
	}
	return doneVT, nil
}

// landForest applies the trees of a forest at the target node within
// one transaction, so the whole forest lands as one epoch or, when any
// tree fails, not at all. x:raw carriers are unwrapped. Ordinary trees
// are added as children (definition (4)); the maintenance tombstone
// x:retract instead removes an existing child of the target, which is
// how view maintenance withdraws rows whose base provenance disappeared
// without re-shipping the whole materialization.
func landForest(tx *peer.Tx, node xmltree.NodeID, forest []*xmltree.Node) error {
	for _, n := range forest {
		if err := landOne(tx, node, n); err != nil {
			return err
		}
	}
	return nil
}

// landOne applies a single landed tree: a carrier lands its content, a
// tombstone removes an existing child of the target, anything else is
// added as a new child.
func landOne(tx *peer.Tx, node xmltree.NodeID, n *xmltree.Node) error {
	switch {
	case n.Kind == xmltree.ElementNode && n.Label == "x:raw":
		return landForest(tx, node, n.Children)
	case n.Kind == xmltree.ElementNode && n.Label == "x:retract":
		child, err := tombstoneTarget(n)
		if err != nil {
			return err
		}
		return tx.Remove(node, child)
	}
	return tx.Append(node, xmltree.DeepCopy(n))
}

// tombstoneTarget reads the node="<id>" attribute of a maintenance
// tombstone: the identifier, at the receiving peer, of the child to
// remove.
func tombstoneTarget(n *xmltree.Node) (xmltree.NodeID, error) {
	s, ok := n.Attr("node")
	if !ok {
		return 0, fmt.Errorf("core: %s tombstone without node attribute", n.Label)
	}
	id, err := strconv.ParseUint(s, 10, 64)
	if err != nil || id == 0 {
		return 0, fmt.Errorf("core: %s tombstone with bad node %q", n.Label, s)
	}
	return xmltree.NodeID(id), nil
}

// Retraction builds the tombstone that, landed at a node, removes its
// identified child. Shipped over ShipForest like ordinary data, so
// maintenance traffic pays the same network accounting.
func Retraction(child xmltree.NodeID) *xmltree.Node {
	return xmltree.E("x:retract", xmltree.A("node", strconv.FormatUint(uint64(child), 10)))
}

// wrapForest packs a forest into the opaque x:raw carrier so that the
// receiving evaluator copies it verbatim (no sc activation in transit).
// The carrier references the trees; unwrapRaw copies them out.
func wrapForest(forest []*xmltree.Node) *xmltree.Node {
	w := xmltree.E("x:raw")
	for _, n := range forest {
		w.AppendChild(n)
	}
	return w
}

// unwrapRaw strips an x:raw carrier if present.
func unwrapRaw(n *xmltree.Node) []*xmltree.Node {
	if n.Kind == xmltree.ElementNode && n.Label == "x:raw" {
		out := make([]*xmltree.Node, 0, len(n.Children))
		for _, c := range n.Children {
			cc := xmltree.DeepCopy(c)
			out = append(out, cc)
		}
		return out
	}
	return []*xmltree.Node{n}
}

// evalServiceCall implements definition (6):
//
//	eval@p0(sc(p1, s1, parList, fwList)) =
//	  send_{p1→fwList}( q1( send_{p0→p1}( eval@p0(parList) ) ) )
func (s *System) evalServiceCall(ctx context.Context, p *peer.Peer, call *ServiceCall, vt float64) (*Result, error) {
	provider := call.Provider
	svcName := call.Service
	if provider == AnyPeer {
		ref, err := s.Generics.ResolveService(p.ID, call.Service)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNoSuchService, err)
		}
		provider, svcName = ref.Provider, ref.Name
	}

	// eval@p0(parList): evaluate parameters at the caller.
	maxVT := vt + s.Cost.ActivateMs*s.computeFactor(p.ID)
	params := make([][]*xmltree.Node, len(call.Params))
	for i, pe := range call.Params {
		res, err := s.eval(ctx, p.ID, pe, vt)
		if err != nil {
			return nil, err
		}
		params[i] = res.Forest
		if res.VT > maxVT {
			maxVT = res.VT
		}
	}

	// send_{p0→p1}(params): ship parameters and the forward list to
	// the provider. The provider applies q1 and ships the results
	// directly to the forward targets (rule (15) remark: "there is no
	// need to ship results back" when forwards are given); with an
	// empty forward list the results come back in the reply, which
	// netsim charges as the provider→caller leg.
	body := xmltree.E("x:call", xmltree.A("service", svcName))
	for _, forest := range params {
		param := xmltree.E("x:param")
		for _, n := range forest {
			param.AppendChild(xmltree.DeepCopy(n))
		}
		body.AppendChild(param)
	}
	for _, ref := range call.Forward {
		body.AppendChild(xmltree.E("x:forw", xmltree.A("ref", ref.String())))
	}
	reply, kind, doneVT, err := s.tracedCall(ctx, "call", svcName, netsim.Message{
		From: p.ID, To: provider, Kind: "call",
		Body: []byte(xmltree.Serialize(body)), VT: maxVT,
	})
	if err != nil {
		return nil, wrapCanceled(ctx, err)
	}
	if kind != "result" {
		return nil, fmt.Errorf("core: unexpected reply kind %q", kind)
	}
	results, err := s.parseForest(reply)
	if err != nil {
		return nil, err
	}

	// A continuous service streams to each forward target from here on.
	if err := s.Subscribe(provider, svcName, params, call.Forward); err != nil {
		return nil, err
	}
	return &Result{Forest: results, VT: doneVT}, nil
}

// peersHosting returns the peers (other than exclude) hosting a
// document with the given name, in deterministic order.
func (s *System) peersHosting(name string, exclude netsim.PeerID) []netsim.PeerID {
	var out []netsim.PeerID
	for _, id := range s.Peers() {
		if id == exclude {
			continue
		}
		if p, ok := s.Peer(id); ok && p.HasDocument(name) {
			out = append(out, id)
		}
	}
	return out
}

// lookupService resolves a service definition.
func (s *System) lookupService(provider netsim.PeerID, name string) *service.Service {
	p, ok := s.Peer(provider)
	if !ok {
		return nil
	}
	svc, ok := p.Service(name)
	if !ok {
		return nil
	}
	return svc
}

// applyService runs a service body over argument forests at its
// provider. It returns the response forest and the compute cost.
func (s *System) applyService(ctx context.Context, p *peer.Peer, svc *service.Service, args [][]*xmltree.Node) ([]*xmltree.Node, float64, error) {
	if svc.Builtin != nil {
		out, err := svc.Builtin(args)
		if err != nil {
			return nil, 0, fmt.Errorf("core: builtin %s@%s: %w", svc.Name, p.ID, err)
		}
		nodes := forestNodes(args) + countNodes(out)
		return out, s.queryCost(p.ID, nodes), nil
	}
	// One pinned epoch serves both the evaluation and the cost model's
	// input-size accounting, so the two agree even when a writer
	// publishes between them.
	h := p.Snapshot()
	defer h.Release()
	cur, err := svc.Body.OwnedCursor(ctx, &xquery.Env{Resolve: h.Resolver(), Index: h}, args...)
	if err != nil {
		return nil, 0, fmt.Errorf("core: service %s@%s: %w", svc.Name, p.ID, err)
	}
	out, err := collect(cur)
	if err != nil {
		return nil, 0, fmt.Errorf("core: service %s@%s: %w", svc.Name, p.ID, err)
	}
	nodes := forestNodes(args) + countNodes(out)
	for _, name := range svc.Body.DocRefs() {
		if n, err := h.NodeCount(name); err == nil {
			nodes += n
		}
	}
	return out, s.queryCost(p.ID, nodes), nil
}

func forestNodes(forests [][]*xmltree.Node) int {
	total := 0
	for _, f := range forests {
		total += countNodes(f)
	}
	return total
}

func countNodes(forest []*xmltree.Node) int {
	total := 0
	for _, n := range forest {
		total += n.NodeCount()
	}
	return total
}
