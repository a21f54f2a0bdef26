// Package netsim provides the message-passing substrate of the AXML
// framework: an instrumented, in-process network of peers with
// per-link latency and bandwidth, byte/message accounting, and a
// Lamport-style virtual clock.
//
// The paper's algebra observes exactly three costs of a distributed
// plan — how many messages cross the network, how many bytes they
// carry, and how long the critical path takes. netsim measures all
// three deterministically, without real sleeps: every message carries
// the virtual time (VT, in milliseconds) at which it was sent; its
// delivery time is sendVT + link latency + size/bandwidth; handlers
// report the VT at which their processing (including nested calls)
// finished. The makespan of an evaluation is the largest VT it
// produced.
//
// Peers are addressed by PeerID and interact by blocking
// request/response Call: delegated evaluation, shipped data and service
// calls alike, each leg accounted.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// PeerID identifies a peer p ∈ P (paper §2).
type PeerID string

// Message is a transport envelope. Body is an opaque payload (the core
// engine uses serialized XML); its length is the accounted size.
type Message struct {
	From, To PeerID
	Kind     string // application-level tag, e.g. "eval", "ship", "call"
	Body     []byte
	VT       float64 // virtual send time, ms
}

// Size returns the accounted size of the message in bytes, including a
// fixed per-message envelope overhead.
func (m *Message) Size() int { return len(m.Body) + EnvelopeOverhead }

// EnvelopeOverhead models per-message protocol framing (headers etc.).
// It is exported so observers (tracing spans, byte-reconciliation
// tests) can reproduce the exact accounted size of a transfer from its
// payload length.
const EnvelopeOverhead = 64

// Handler is implemented by peers to receive traffic.
type Handler interface {
	// HandleCall processes a request and returns a reply payload along
	// with the virtual time at which the reply was ready (≥ arriveVT;
	// it includes local compute and any nested remote work).
	HandleCall(msg Message, arriveVT float64) (body []byte, kind string, doneVT float64, err error)
}

// CtxHandler is optionally implemented by handlers that can propagate
// a caller's context into their processing (nested remote calls,
// long evaluations). CallCtx prefers it over HandleCall, which is how
// a deadline set by a client session reaches work three delegation
// hops away.
type CtxHandler interface {
	HandleCallCtx(ctx context.Context, msg Message, arriveVT float64) (body []byte, kind string, doneVT float64, err error)
}

// Link describes a directed network link.
type Link struct {
	// LatencyMs is the propagation delay in virtual milliseconds.
	LatencyMs float64
	// BytesPerMs is the bandwidth. Zero means infinite bandwidth.
	BytesPerMs float64
}

// transferMs returns the virtual transfer duration of size bytes.
func (l Link) transferMs(size int) float64 {
	d := l.LatencyMs
	if l.BytesPerMs > 0 {
		d += float64(size) / l.BytesPerMs
	}
	return d
}

// DefaultLink is used for pairs without an explicit SetLink: a LAN-ish
// 1 ms / 1 MB-per-second link.
var DefaultLink = Link{LatencyMs: 1, BytesPerMs: 1000}

type linkKey struct{ from, to PeerID }

// Network is the simulated network. The zero value is not usable; use
// New.
type Network struct {
	mu       sync.Mutex
	handlers map[PeerID]Handler
	links    map[linkKey]Link
	down     map[PeerID]bool
	deflink  Link
	realtime float64 // wall-clock ms slept per virtual ms (0 = instant)
	stats    Stats
}

// New creates an empty network with the default link profile.
func New() *Network {
	return &Network{
		handlers: map[PeerID]Handler{},
		links:    map[linkKey]Link{},
		down:     map[PeerID]bool{},
		deflink:  DefaultLink,
	}
}

// SetRealtime makes transfers consume wall-clock time: every virtual
// millisecond of link transfer sleeps scale real milliseconds inside
// Call/CallCtx. Zero (the default) keeps the network instantaneous.
// The knob exists so cancellation can be exercised mid-transfer: with
// a slow simulated link and a real deadline, a context expires while
// the bytes are "on the wire" and the call aborts before delivery.
func (n *Network) SetRealtime(scale float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.realtime = scale
}

// realWait sleeps the real-time equivalent of durMs virtual
// milliseconds (when realtime mode is on), aborting early if the
// context expires. It returns the context's error on abort.
func (n *Network) realWait(ctx context.Context, durMs float64) error {
	n.mu.Lock()
	scale := n.realtime
	n.mu.Unlock()
	if scale <= 0 || durMs <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(time.Duration(durMs * scale * float64(time.Millisecond)))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// SetDefaultLink changes the link profile used for unconfigured pairs.
func (n *Network) SetDefaultLink(l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.deflink = l
}

// SetLink configures the directed link from → to.
func (n *Network) SetLink(from, to PeerID, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{from, to}] = l
}

// SetLinkBoth configures both directions symmetrically.
func (n *Network) SetLinkBoth(a, b PeerID, l Link) {
	n.SetLink(a, b, l)
	n.SetLink(b, a, l)
}

// Register attaches a peer handler. Registering an existing ID is an
// error.
func (n *Network) Register(id PeerID, h Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.handlers[id]; ok {
		return fmt.Errorf("netsim: peer %q already registered", id)
	}
	n.handlers[id] = h
	return nil
}

// SetDown marks a peer unreachable (failure injection); messages to it
// error.
func (n *Network) SetDown(id PeerID, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[id] = down
}

// Peers returns the registered peer IDs.
func (n *Network) Peers() []PeerID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]PeerID, 0, len(n.handlers))
	for id := range n.handlers {
		out = append(out, id)
	}
	return out
}

// ErrUnknownPeer is returned for calls to unregistered peers.
var ErrUnknownPeer = errors.New("netsim: unknown peer")

// ErrPeerDown is returned for calls to peers marked down.
var ErrPeerDown = errors.New("netsim: peer down")

// ErrAckLost marks a call whose request was delivered and handled but
// whose reply leg aborted: the handler's side effects at the remote
// peer stand, only the acknowledgment was lost. Callers that mutate
// remote state must treat this as "maybe applied", not "not applied".
var ErrAckLost = errors.New("netsim: reply lost after delivery")

func (n *Network) lookup(msg *Message) (Handler, Link, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.handlers[msg.To]
	if !ok {
		return nil, Link{}, fmt.Errorf("%w: %q", ErrUnknownPeer, msg.To)
	}
	if n.down[msg.To] {
		return nil, Link{}, fmt.Errorf("%w: %q", ErrPeerDown, msg.To)
	}
	l, ok := n.links[linkKey{msg.From, msg.To}]
	if !ok {
		l = n.deflink
	}
	return h, l, nil
}

// Local delivery: a message from a peer to itself costs nothing. The
// paper's expressions frequently evaluate sub-expressions in place;
// only genuine cross-peer transfers are accounted.
func (n *Network) isLocal(msg *Message) bool { return msg.From == msg.To }

// Call delivers a request and blocks for the reply. The returned VT is
// the virtual time at which the reply arrived back at the caller.
func (n *Network) Call(msg Message) (body []byte, kind string, vt float64, err error) {
	return n.CallCtx(context.Background(), msg)
}

// CallCtx is Call under a context: the request is not sent when the
// context has already expired, the transfer legs abort mid-flight in
// realtime mode, and handlers implementing CtxHandler see the context
// so nested remote work stops too. An aborted leg is not accounted —
// the bytes never (fully) crossed the wire. Note the asymmetry of a
// reply-leg abort: the handler has already run, so its side effects
// at the remote peer stand (a lost ack, as on a real network); callers
// whose requests mutate remote state must treat such an error as
// ambiguous, not as proof the request never applied.
func (n *Network) CallCtx(ctx context.Context, msg Message) (body []byte, kind string, vt float64, err error) {
	if err := ctx.Err(); err != nil {
		return nil, "", 0, fmt.Errorf("netsim: call %s→%s not sent: %w", msg.From, msg.To, err)
	}
	h, link, err := n.lookup(&msg)
	if err != nil {
		return nil, "", 0, err
	}
	arrive := msg.VT
	if !n.isLocal(&msg) {
		dur := link.transferMs(msg.Size())
		if err := n.realWait(ctx, dur); err != nil {
			return nil, "", 0, fmt.Errorf("netsim: call %s→%s aborted in transit: %w", msg.From, msg.To, err)
		}
		arrive += dur
		n.account(&msg, arrive)
	}
	var rbody []byte
	var rkind string
	var doneVT float64
	if ch, ok := h.(CtxHandler); ok {
		rbody, rkind, doneVT, err = ch.HandleCallCtx(ctx, msg, arrive)
	} else {
		rbody, rkind, doneVT, err = h.HandleCall(msg, arrive)
	}
	if err != nil {
		return nil, "", 0, err
	}
	respVT := doneVT
	if !n.isLocal(&msg) {
		resp := Message{From: msg.To, To: msg.From, Kind: rkind, Body: rbody, VT: doneVT}
		_, backLink, lerr := n.lookup(&resp)
		if lerr != nil {
			return nil, "", 0, lerr
		}
		dur := backLink.transferMs(resp.Size())
		if err := n.realWait(ctx, dur); err != nil {
			return nil, "", 0, fmt.Errorf("netsim: reply %s→%s aborted in transit: %w: %w",
				resp.From, resp.To, ErrAckLost, err)
		}
		respVT = doneVT + dur
		n.account(&resp, respVT)
	}
	return rbody, rkind, respVT, nil
}

// account records a completed transfer.
func (n *Network) account(msg *Message, arriveVT float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.Messages++
	n.stats.Bytes += int64(msg.Size())
	if n.stats.PerLink == nil {
		n.stats.PerLink = map[PeerID]map[PeerID]LinkStats{}
	}
	fromMap := n.stats.PerLink[msg.From]
	if fromMap == nil {
		fromMap = map[PeerID]LinkStats{}
		n.stats.PerLink[msg.From] = fromMap
	}
	ls := fromMap[msg.To]
	ls.Messages++
	ls.Bytes += int64(msg.Size())
	if ls.ByKind == nil {
		ls.ByKind = map[string]int64{}
	}
	ls.ByKind[msg.Kind] += int64(msg.Size())
	fromMap[msg.To] = ls
	if arriveVT > n.stats.MaxVT {
		n.stats.MaxVT = arriveVT
	}
}

// LinkInfo returns the configured link from → to (the default link
// when unconfigured). Strategies use it for locality-aware picking.
func (n *Network) LinkInfo(from, to PeerID) Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	if from == to {
		return Link{} // local: zero latency, infinite bandwidth
	}
	if l, ok := n.links[linkKey{from, to}]; ok {
		return l
	}
	return n.deflink
}

// ObserveVT folds a locally observed virtual time into the makespan
// (used by engines for compute-only completions).
func (n *Network) ObserveVT(vt float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if vt > n.stats.MaxVT {
		n.stats.MaxVT = vt
	}
}

// LinkStats aggregates one direction of one link. ByKind splits the
// byte total by application-level message kind ("eval" for delegated
// work and shipped query results, "ship" for view-maintenance and
// data-landing transfers, "call"/"deploy"/… for the rest), so observers
// can distinguish query traffic from maintenance traffic on a link.
type LinkStats struct {
	Messages int64
	Bytes    int64
	ByKind   map[string]int64
}

// Stats aggregates network activity.
type Stats struct {
	Messages int64
	Bytes    int64
	MaxVT    float64
	PerLink  map[PeerID]map[PeerID]LinkStats
}

// Stats returns a copy of the current counters.
//
// Snapshot-consistency contract: the copy is taken in one critical
// section of the network's lock — the same lock every account() holds —
// so it is a consistent cut of all netsim counters: Messages, Bytes,
// MaxVT and every PerLink entry reflect exactly the same set of
// completed transfers. A transfer is accounted atomically when a leg
// of its call completes; aborted legs are
// never accounted. All counters are monotone.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.stats
	out.PerLink = map[PeerID]map[PeerID]LinkStats{}
	for from, m := range n.stats.PerLink {
		cp := map[PeerID]LinkStats{}
		for to, ls := range m {
			if ls.ByKind != nil {
				byKind := make(map[string]int64, len(ls.ByKind))
				for k, v := range ls.ByKind {
					byKind[k] = v
				}
				ls.ByKind = byKind
			}
			cp[to] = ls
		}
		out.PerLink[from] = cp
	}
	return out
}

// Totals returns the scalar counters without copying the per-link
// maps — the cheap form metrics gauges sample on every snapshot. Same
// consistency contract as Stats: one critical section, a consistent
// cut.
func (n *Network) Totals() (messages, bytes int64, maxVT float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats.Messages, n.stats.Bytes, n.stats.MaxVT
}
