// Package opt implements cost-based optimization over the rewrite
// rules of §3.3: a static cost estimator for expressions (network
// bytes, messages, and virtual time, priced through the same link
// model the evaluator charges) and a best-first search over single-rule
// derivations. The search tells candidates apart by a structural key
// and prices each distinct sub-plan once per site (memo.go).
//
// The estimator follows classical distributed-query optimization
// practice (paper's references [12], [15]): the optimizer is assumed
// to know catalog statistics — document sizes and link profiles — and
// uses coarse selectivity factors for query outputs. The size of a
// document is read, never measured, at plan time: the store takes it
// once per published root (peer.Peer.DocumentBytes).
package opt

import (
	"fmt"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/xquery"
)

// Weights convert an Estimate into a scalar cost.
type Weights struct {
	PerByte    float64 // cost per wire byte
	PerMessage float64 // fixed cost per message
	PerMs      float64 // cost per virtual millisecond of makespan
}

// DefaultWeights balance traffic and latency: 1 per KB, 5 per message,
// 10 per ms.
var DefaultWeights = Weights{PerByte: 0.001, PerMessage: 5, PerMs: 10}

// Estimate is the predicted cost of a plan.
type Estimate struct {
	Bytes    float64 // wire bytes moved
	Messages float64 // messages sent
	TimeMs   float64 // virtual completion time (critical path)
	OutBytes float64 // size of the result at the evaluation site
}

// Total scalarizes the estimate.
func (e Estimate) Total(w Weights) float64 {
	return w.PerByte*e.Bytes + w.PerMessage*e.Messages + w.PerMs*e.TimeMs
}

// Estimator predicts plan costs against a system's catalog statistics.
// It remembers every sub-plan it prices, by structure, and answers the
// same sub-plan at the same site from memory after that: it prices
// against the catalog as of its first look, so it serves one plan
// search (Optimize makes one per call) and its calibration fields are
// set before the first estimate.
type Estimator struct {
	Sys *core.System
	// SelPerPredicate is the fraction of input surviving one where
	// conjunct (default 0.2).
	SelPerPredicate float64
	// ProjFactor is the shrink factor of a projecting return clause
	// (default 0.4).
	ProjFactor float64
	// BytesPerNode approximates serialized bytes per tree node
	// (default 30), used to convert sizes into compute-node counts.
	BytesPerNode float64

	memo *memo
}

// NewEstimator creates an estimator with default calibration.
func NewEstimator(sys *core.System) *Estimator {
	return &Estimator{Sys: sys, SelPerPredicate: 0.2, ProjFactor: 0.4, BytesPerNode: 30, memo: newMemo()}
}

// envelope mirrors netsim's per-message framing overhead.
const envelope = 64

// requestBytes is the assumed size of a small control request.
const requestBytes = 128

// Estimate predicts the cost of evaluating e at peer at.
func (es *Estimator) Estimate(at netsim.PeerID, e core.Expr) (Estimate, error) {
	return es.est(at, e)
}

// transfer charges one message of size bytes over from→to.
func (es *Estimator) transfer(acc *Estimate, from, to netsim.PeerID, size float64, start float64) float64 {
	if from == to {
		return start
	}
	link := es.Sys.Net.LinkInfo(from, to)
	acc.Bytes += size + envelope
	acc.Messages++
	d := link.LatencyMs
	if link.BytesPerMs > 0 {
		d += (size + envelope) / link.BytesPerMs
	}
	return start + d
}

// docSize returns the serialized size of a document, resolving generic
// references through the catalog.
func (es *Estimator) docSize(name string, at netsim.PeerID) (float64, netsim.PeerID, error) {
	if at == core.AnyPeer {
		rep, err := es.Sys.Generics.ResolveDoc("", name)
		if err != nil {
			return 0, "", err
		}
		name, at = rep.Doc, rep.At
	}
	p, ok := es.Sys.Peer(at)
	if !ok {
		return 0, "", fmt.Errorf("opt: unknown peer %q", at)
	}
	size, ok := p.DocumentBytes(name)
	if !ok {
		return 0, "", fmt.Errorf("opt: no document %q at %s", name, at)
	}
	return float64(size), at, nil
}

// QuerySelectivity estimates the output fraction of a query from its
// shape: each where conjunct filters, a projecting return shrinks. The
// adaptive-placement scorer prices candidate moves with it too, so the
// optimizer and the scorer never disagree about what a query ships.
func (es *Estimator) QuerySelectivity(q *xquery.Query) float64 {
	sel := 1.0
	if s, ok := xquery.Select(q.Body); ok {
		if s.F.Where != nil && s.Where == nil {
			sel *= es.SelPerPredicate // a where that is no path is one predicate
		}
		for range s.Conjuncts() {
			sel *= es.SelPerPredicate
		}
		sel *= es.ProjFactor
	}
	if sel < 0.001 {
		sel = 0.001
	}
	return sel
}

// est prices e at site at once per structure; price does the work.
func (es *Estimator) est(at netsim.PeerID, e core.Expr) (Estimate, error) {
	k := estKey{at: at, key: es.memo.key(e)}
	if r, ok := es.memo.ests[k]; ok {
		return r.est, r.err
	}
	es.memo.priced++
	acc, err := es.price(at, e)
	es.memo.ests[k] = estimated{est: acc, err: err}
	return acc, err
}

func (es *Estimator) price(at netsim.PeerID, e core.Expr) (Estimate, error) {
	var acc Estimate
	switch v := e.(type) {
	case *core.Tree:
		size := float64(v.Node.ByteSize())
		if v.At != at {
			// Request + response.
			t := es.transfer(&acc, at, v.At, requestBytes, 0)
			acc.TimeMs = es.transfer(&acc, v.At, at, size, t)
		}
		acc.OutBytes = size
		return acc, nil
	case *core.Doc:
		size, home, err := es.docSize(v.Name, v.At)
		if err != nil {
			return acc, err
		}
		if home != at {
			t := es.transfer(&acc, at, home, requestBytes, 0)
			acc.TimeMs = es.transfer(&acc, home, at, size, t)
		}
		acc.OutBytes = size
		return acc, nil
	case *core.QueryVal:
		acc.OutBytes = float64(len(es.memo.text(v.Q)))
		return acc, nil
	case *core.Query:
		return es.estQuery(at, v)
	case *core.Send:
		return es.estSend(at, v)
	case *core.Relay:
		return es.estRelay(at, v)
	case *core.ServiceCall:
		return es.estCall(at, v)
	case *core.EvalAt:
		return es.estEvalAt(at, v)
	default:
		return acc, fmt.Errorf("opt: cannot estimate %T", e)
	}
}

func (es *Estimator) estQuery(at netsim.PeerID, q *core.Query) (Estimate, error) {
	var acc Estimate
	start := 0.0
	// Query text ships when defined elsewhere (definition (7)).
	if q.At != "" && q.At != at {
		t := es.transfer(&acc, at, q.At, requestBytes, 0)
		start = es.transfer(&acc, q.At, at, float64(len(es.memo.text(q.Q))), t)
	}
	inputBytes := 0.0
	// Arguments (with rule-13 sharing, duplicates cost once).
	seen := map[string]bool{}
	maxArgT := start
	for _, a := range q.Args {
		if q.ShareArgs {
			key := es.memo.key(a)
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		sub, err := es.est(at, a)
		if err != nil {
			return acc, err
		}
		acc.Bytes += sub.Bytes
		acc.Messages += sub.Messages
		if start+sub.TimeMs > maxArgT {
			maxArgT = start + sub.TimeMs
		}
		inputBytes += sub.OutBytes
	}
	// Documents read via doc("name"): local ones are free, remote ones
	// ship (the naive fetch of definition (7)).
	p, ok := es.Sys.Peer(at)
	if !ok {
		return acc, fmt.Errorf("opt: unknown peer %q", at)
	}
	docT := start
	for _, name := range q.Q.DocRefs() {
		// One lookup: a view document can be migrated away between a
		// HasDocument check and a second call.
		if size, ok := p.DocumentBytes(name); ok {
			inputBytes += float64(size)
			continue
		}
		size, home, err := es.remoteDocInfo(name, at)
		if err != nil {
			return acc, err
		}
		t := es.transfer(&acc, at, home, requestBytes, start)
		t = es.transfer(&acc, home, at, size, t)
		if t > docT {
			docT = t
		}
		inputBytes += size
	}
	if docT > maxArgT {
		maxArgT = docT
	}
	sel := es.QuerySelectivity(q.Q)
	out := inputBytes * sel
	if out < 16 {
		out = 16
	}
	nodes := inputBytes / es.BytesPerNode
	compute := es.Sys.Cost.QueryMsPerNode * nodes * es.computeFactor(at)
	acc.TimeMs = maxArgT + compute
	acc.OutBytes = out
	return acc, nil
}

// remoteDocInfo locates a document through the generics catalog first
// (mirroring the evaluator's pickDoc priority), then on any hosting
// peer, and returns its size and home.
func (es *Estimator) remoteDocInfo(name string, exclude netsim.PeerID) (float64, netsim.PeerID, error) {
	if rep, err := es.Sys.Generics.ResolveDoc(exclude, name); err == nil {
		return es.docSize(rep.Doc, rep.At)
	}
	for _, id := range es.Sys.Peers() {
		if id == exclude {
			continue
		}
		p, ok := es.Sys.Peer(id)
		if !ok {
			continue
		}
		if size, ok := p.DocumentBytes(name); ok {
			return float64(size), id, nil
		}
	}
	return 0, "", fmt.Errorf("opt: no peer hosts document: %w: %q", core.ErrNoSuchDoc, name)
}

func (es *Estimator) estSend(at netsim.PeerID, s *core.Send) (Estimate, error) {
	acc, err := es.est(at, s.Payload)
	if err != nil {
		return acc, err
	}
	switch d := s.Dest.(type) {
	case core.DestPeer:
		acc.TimeMs = es.transfer(&acc, at, d.P, acc.OutBytes, acc.TimeMs)
	case core.DestDoc:
		acc.TimeMs = es.transfer(&acc, at, d.At, acc.OutBytes, acc.TimeMs)
	case core.DestNodes:
		maxT := acc.TimeMs
		for _, ref := range d.Refs {
			t := es.transfer(&acc, at, ref.Peer, acc.OutBytes, acc.TimeMs)
			if t > maxT {
				maxT = t
			}
		}
		acc.TimeMs = maxT
	}
	acc.OutBytes = 0 // a send returns ∅
	return acc, nil
}

func (es *Estimator) estRelay(at netsim.PeerID, r *core.Relay) (Estimate, error) {
	acc, err := es.est(at, r.Payload)
	if err != nil {
		return acc, err
	}
	cur := at
	t := acc.TimeMs
	for _, hop := range r.Via {
		t = es.transfer(&acc, cur, hop, acc.OutBytes, t)
		cur = hop
	}
	switch d := r.Dest.(type) {
	case core.DestPeer:
		t = es.transfer(&acc, cur, d.P, acc.OutBytes, t)
	case core.DestNodes:
		maxT := t
		for _, ref := range d.Refs {
			ht := es.transfer(&acc, cur, ref.Peer, acc.OutBytes, t)
			if ht > maxT {
				maxT = ht
			}
		}
		t = maxT
	}
	acc.TimeMs = t
	acc.OutBytes = 0
	return acc, nil
}

func (es *Estimator) estCall(at netsim.PeerID, c *core.ServiceCall) (Estimate, error) {
	var acc Estimate
	provider := c.Provider
	svcName := c.Service
	if provider == core.AnyPeer {
		ref, err := es.Sys.Generics.ResolveService(at, c.Service)
		if err != nil {
			return acc, err
		}
		provider, svcName = ref.Provider, ref.Name
	}
	paramBytes := 0.0
	maxT := 0.0
	for _, pe := range c.Params {
		sub, err := es.est(at, pe)
		if err != nil {
			return acc, err
		}
		acc.Bytes += sub.Bytes
		acc.Messages += sub.Messages
		if sub.TimeMs > maxT {
			maxT = sub.TimeMs
		}
		paramBytes += sub.OutBytes
	}
	// Params ship caller→provider.
	t := es.transfer(&acc, at, provider, paramBytes+requestBytes, maxT)
	// Service compute: declarative bodies read provider documents.
	inputBytes := paramBytes
	sel := 0.5
	if p, ok := es.Sys.Peer(provider); ok {
		if svc, ok := p.Service(svcName); ok && svc.Declarative() {
			for _, name := range svc.Body.DocRefs() {
				if size, ok := p.DocumentBytes(name); ok {
					inputBytes += float64(size)
				}
			}
			sel = es.QuerySelectivity(svc.Body)
		}
	}
	out := inputBytes * sel
	if out < 16 {
		out = 16
	}
	compute := es.Sys.Cost.QueryMsPerNode * (inputBytes / es.BytesPerNode) * es.computeFactor(provider)
	t += compute
	if len(c.Forward) == 0 {
		// Results return to the caller.
		acc.TimeMs = es.transfer(&acc, provider, at, out, t)
		acc.OutBytes = out
		return acc, nil
	}
	maxFT := t
	for _, ref := range c.Forward {
		ft := es.transfer(&acc, provider, ref.Peer, out, t)
		if ft > maxFT {
			maxFT = ft
		}
	}
	// Small ack returns to the caller.
	ackT := es.transfer(&acc, provider, at, 16, t)
	if ackT > maxFT {
		maxFT = ackT
	}
	acc.TimeMs = maxFT
	acc.OutBytes = 0
	return acc, nil
}

func (es *Estimator) estEvalAt(at netsim.PeerID, ev *core.EvalAt) (Estimate, error) {
	var acc Estimate
	if ev.At == at {
		return es.est(at, ev.E)
	}
	// Ship the serialized plan.
	planSize := es.memo.wireSize(ev.E)
	t := es.transfer(&acc, at, ev.At, planSize, 0)
	inner, err := es.est(ev.At, ev.E)
	if err != nil {
		return acc, err
	}
	acc.Bytes += inner.Bytes
	acc.Messages += inner.Messages
	t += inner.TimeMs
	// Result ships back.
	acc.TimeMs = es.transfer(&acc, ev.At, at, inner.OutBytes, t)
	acc.OutBytes = inner.OutBytes
	return acc, nil
}

func (es *Estimator) computeFactor(netsimID netsim.PeerID) float64 {
	// System exposes factors only through cost accounting; reproduce
	// the lookup through a probe cost of one node.
	base := es.Sys.Cost.QueryMsPerNode
	if base == 0 {
		return 1
	}
	return es.Sys.ComputeFactor(netsimID)
}
