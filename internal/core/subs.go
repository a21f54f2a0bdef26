package core

import (
	"context"
	"sync"

	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/service"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// Continuous services (§2.2): after the initial response, a continuous
// service keeps emitting result trees whenever its input documents
// evolve. Each activated call on a continuous service creates a
// subscription at the provider: the provider watches the documents the
// service body reads and ships result deltas to the call's forward
// targets (streams "accumulate as siblings of the sc node" — the
// axmldoc package subscribes the sc's parent once the activation
// commits).
type subscription struct {
	sys      *System
	provider *peer.Peer
	svc      *service.Service
	params   [][]*xmltree.Node
	targets  []peer.NodeRef
	caller   netsim.PeerID

	// delta keeps the emitted multiset as unsynchronised state, so only
	// the run goroutine calls it: document changes wake it, and
	// PumpSubscriptions asks it for a step through pumpReq and waits.
	delta    func() ([]*xmltree.Node, error)
	cancels  []func()
	wake     chan struct{}
	pumpReq  chan chan<- pumpResult
	done     chan struct{}
	stopOnce sync.Once
}

// pumpResult is the outcome of one delta step: how many result trees
// were shipped, and the first failure.
type pumpResult struct {
	shipped int
	err     error
}

// Subscribe registers a continuous stream of the named service at
// providerID, applied to params, towards the forward targets. The
// initial batch has already been delivered by the call; the
// subscription only ships subsequent deltas. Calls to a service that is
// not continuous and declarative, and calls without forward targets
// (there is nowhere to push), get no subscription.
func (s *System) Subscribe(providerID netsim.PeerID, svcName string,
	params [][]*xmltree.Node, targets []peer.NodeRef, caller netsim.PeerID) error {
	svc := s.lookupService(providerID, svcName)
	if len(targets) == 0 || svc == nil || !svc.Continuous || !svc.Declarative() {
		return nil
	}
	provider, _ := s.Peer(providerID)
	sub := &subscription{
		sys:      s,
		provider: provider,
		svc:      svc,
		params:   params,
		targets:  targets,
		caller:   caller,
		wake:     make(chan struct{}, 1),
		pumpReq:  make(chan chan<- pumpResult),
		done:     make(chan struct{}),
	}
	env := &xquery.Env{Resolve: provider.Resolver()}
	rc := xquery.NewRecompute(svc.Body, env, params...)
	// Prime the seen-set with the initial batch so the first delta
	// only carries genuinely new results.
	if _, err := rc.Delta(); err != nil {
		return err
	}
	sub.delta = rc.Delta

	for _, docName := range svc.Body.DocRefs() {
		ch, cancel := provider.Watch(docName)
		sub.cancels = append(sub.cancels, cancel)
		go sub.pump(ch)
	}

	s.mu.Lock()
	s.subs = append(s.subs, sub)
	s.mu.Unlock()
	go sub.run()
	s.tracef("subscribed %s@%s → %v (continuous)", svc.Name, providerID, targets)
	return nil
}

// pump forwards document-change events into the subscription's wake
// channel (coalescing; the event detail is not needed — the delta
// function diffs against its own emitted state).
func (sub *subscription) pump(ch <-chan peer.Change) {
	for {
		select {
		case <-sub.done:
			return
		case _, ok := <-ch:
			if !ok {
				return
			}
			select {
			case sub.wake <- struct{}{}:
			default:
			}
		}
	}
}

// run ships deltas until stopped.
func (sub *subscription) run() {
	for {
		select {
		case <-sub.done:
			return
		case <-sub.wake:
			sub.step() // stream pushes are one-way: a failure is dropped
		case reply := <-sub.pumpReq:
			reply <- sub.step()
		}
	}
}

// step evaluates the pending delta once and ships it to every forward
// target; a target that fails does not keep the others from receiving
// the batch. VT restarts per push (the makespan of continuous phases
// is measured by bytes and message counts, see DESIGN.md).
func (sub *subscription) step() pumpResult {
	out, err := sub.delta()
	if err != nil || len(out) == 0 {
		return pumpResult{err: err}
	}
	var res pumpResult
	for _, ref := range sub.targets {
		if _, err := sub.sys.shipData(context.Background(), sub.provider.ID, ref, out, 0); err != nil {
			if res.err == nil {
				res.err = err
			}
			continue
		}
		res.shipped += len(out)
	}
	return res
}

func (sub *subscription) stop() {
	sub.stopOnce.Do(func() {
		close(sub.done)
		for _, cancel := range sub.cancels {
			cancel()
		}
	})
}

// PumpSubscriptions has every subscription take one delta step now and
// waits for it, so that what the step ships has landed on return (used
// by tests and benchmarks instead of waiting for the background wake).
// It returns the number of result trees the steps shipped — a change a
// background wake got to first has landed too, but is not counted.
func (s *System) PumpSubscriptions() (int, error) {
	s.mu.RLock()
	subs := make([]*subscription, len(s.subs))
	copy(subs, s.subs)
	s.mu.RUnlock()
	total := 0
	for _, sub := range subs {
		reply := make(chan pumpResult, 1)
		select {
		case sub.pumpReq <- reply:
		case <-sub.done:
			continue
		}
		res := <-reply
		total += res.shipped
		if res.err != nil {
			return total, res.err
		}
	}
	return total, nil
}
