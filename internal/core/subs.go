package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// Continuous services (§2.2): after the initial response, a continuous
// service keeps emitting result trees whenever its input document
// evolves, and they "accumulate as siblings of the sc node" (the
// axmldoc package subscribes the sc's parent once the activation
// commits). Each activated call on a continuous service opens one
// stream per forward target at the provider. A stream is kept up to
// date by the same change-feed step that refreshes a view placement
// (FeedStep): a wake evaluates the body only for the sources the
// document's change feed names, and ships the results by which the live
// result multiset now exceeds the most the stream ever shipped — the
// monotone stream of positive AXML, which never shrinks.

// FeedStep takes one maintenance step of inc, whose provenance reflects
// document doc at peer base as of epoch from (0 precedes every document,
// so a step from 0 derives the whole result), towards the node to. It
// pins base and reads the commits to doc since from: none, and it
// returns nil events. Otherwise it derives their events and ships the
// forest build makes of them. The epoch it returns moves only once the
// forest has landed; a failed ship rolls inc back, so the next step
// re-derives the same events. After a lost acknowledgment
// (netsim.ErrAckLost) the forest did land: the events and the new epoch
// come back beside the error.
func (s *System) FeedStep(ctx context.Context, base netsim.PeerID, doc string, inc *xquery.DeltaFor,
	from uint64, to peer.NodeRef, build func(*xquery.Events) []*xmltree.Node) (*xquery.Events, uint64, error) {
	host, ok := s.Peer(base)
	if !ok {
		return nil, from, fmt.Errorf("base peer %q is gone", base)
	}
	// The delta derives from a consistent point-in-time view while base
	// writers proceed.
	h := host.Snapshot()
	epoch := h.Epoch()
	commits, bounded := h.Changes(doc, from)
	if bounded && len(commits) == 0 {
		h.Release()
		return nil, from, nil
	}
	// A feed that does not reach back to from holds no commits, and
	// DeltaEventsFeed takes the full diff.
	ev, err := inc.DeltaEventsFeed(&xquery.Env{Resolve: h.Resolver()}, commits)
	h.Release()
	if err != nil {
		return nil, from, err
	}
	// Nothing ships when every event concerned sources whose results
	// the caller does not carry (filtered out by the where clause, say).
	if forest := build(ev); len(forest) > 0 {
		if _, err := s.shipData(ctx, base, to, forest, 0); err != nil {
			if !errors.Is(err, netsim.ErrAckLost) {
				inc.Rollback()
				return nil, from, err
			}
			return ev, epoch, err
		}
	}
	return ev, epoch, nil
}

// stream is one continuous call towards one forward target. mu
// serializes its steps, whether a document change or PumpSubscriptions
// asks for them.
type stream struct {
	mu    sync.Mutex
	sys   *System
	base  netsim.PeerID
	doc   string
	to    peer.NodeRef
	inc   *xquery.DeltaFor
	epoch uint64
	// rows holds each source's result digests, live how often each
	// digest occurs in the current result, and shipped the most
	// occurrences of it ever shipped.
	rows    map[xquery.Lineage][]xmltree.Digest
	live    map[xmltree.Digest]int
	shipped map[xmltree.Digest]int

	unwatch func()
	done    chan struct{}
}

// Subscribe opens a continuous stream of the named service at
// providerID, applied to params, towards each forward target. The
// initial batch has already been delivered by the call; a stream only
// ships what later commits add. Calls to a service that is not
// continuous and declarative, and calls without forward targets (there
// is nowhere to push), open no stream.
func (s *System) Subscribe(providerID netsim.PeerID, svcName string,
	params [][]*xmltree.Node, targets []peer.NodeRef) error {
	svc := s.lookupService(providerID, svcName)
	if len(targets) == 0 || svc == nil || !svc.Continuous || !svc.Declarative() {
		return nil
	}
	provider, _ := s.Peer(providerID)
	for _, to := range targets {
		inc, ok := xquery.NewDeltaFor(svc.Body, params)
		if !ok {
			return fmt.Errorf("core: continuous service %s@%s cannot be maintained over %d argument(s)",
				svc.Name, providerID, len(params))
		}
		st := &stream{sys: s, base: providerID, doc: svc.Body.DocRefs()[0], to: to, inc: inc,
			rows: map[xquery.Lineage][]xmltree.Digest{}, live: map[xmltree.Digest]int{},
			shipped: map[xmltree.Digest]int{}, done: make(chan struct{})}
		// Epoch 0 precedes every document, so the first step derives
		// the whole current result; the call delivered it, so it counts
		// as shipped and nothing goes out. A commit after the watch
		// starts wakes the stream.
		ch, unwatch := provider.Watch(st.doc)
		if _, _, err := st.step(false); err != nil {
			unwatch()
			return err
		}
		st.unwatch = unwatch
		s.mu.Lock()
		s.subs = append(s.subs, st)
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case <-st.done:
					return
				case <-ch:
					st.step(true) // stream pushes are one-way: the next step retries a failure
				}
			}
		}()
	}
	return nil
}

// step brings the stream up to date with the provider's document and
// returns the step's events (nil when nothing was committed) and how
// many result trees it shipped; unless ship is set it ships nothing and
// counts what it derived as shipped. A ship that fails leaves the
// stream as it was, so the next step ships the same rows; one whose
// acknowledgment was lost landed, and counts as shipped.
func (st *stream) step(ship bool) (*xquery.Events, int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var digests [][]xmltree.Digest
	var out []*xmltree.Node
	//axmlvet:ignore lockedcall a stream's steps are serial; the landing side never re-enters st.mu
	ev, epoch, err := st.sys.FeedStep(context.Background(), st.base, st.doc, st.inc, st.epoch, st.to,
		func(ev *xquery.Events) []*xmltree.Node {
			if out, digests = st.excess(ev); !ship {
				out = nil
			}
			return out
		})
	if ev == nil {
		return nil, 0, err
	}
	st.epoch = epoch
	st.count(ev, digests)
	return ev, len(out), err
}

// excess returns the result trees of ev's additions by which the live
// multiset, once ev applies, exceeds what was shipped, and the digests
// of every addition's results. Retractions apply first and only lower
// live counts, which never exceed the shipped ones, so a retraction
// ships nothing and the stream never shrinks.
func (st *stream) excess(ev *xquery.Events) ([]*xmltree.Node, [][]xmltree.Digest) {
	live := map[xmltree.Digest]int{}
	for _, k := range ev.Retractions {
		for _, d := range st.rows[k] {
			live[d]--
		}
	}
	var out []*xmltree.Node
	digests := make([][]xmltree.Digest, len(ev.Additions))
	for i, a := range ev.Additions {
		digests[i] = make([]xmltree.Digest, len(a.Results))
		for j, n := range a.Results {
			d := xmltree.Hash(n)
			digests[i][j] = d
			if live[d]++; st.live[d]+live[d] > st.shipped[d] {
				out = append(out, n)
			}
		}
	}
	return out, digests
}

// count applies landed events to the counts: every digest an addition
// raised is now shipped as often as it occurs.
func (st *stream) count(ev *xquery.Events, digests [][]xmltree.Digest) {
	for _, k := range ev.Retractions {
		for _, d := range st.rows[k] {
			st.live[d]--
		}
		delete(st.rows, k)
	}
	for i, a := range ev.Additions {
		for _, d := range digests[i] {
			st.live[d]++
			st.shipped[d] = max(st.shipped[d], st.live[d])
		}
		if len(digests[i]) > 0 {
			st.rows[a.Source] = digests[i]
		}
	}
}

// PumpSubscriptions has every stream take one step now, so that what it
// ships has landed on return (used by tests and examples instead of
// waiting for the background wake). It returns the number of result
// trees these steps shipped — rows a background wake got to first have
// landed too, but are not counted — and every stream's failure; one
// stream's failure keeps no other from stepping.
func (s *System) PumpSubscriptions() (int, error) {
	s.mu.RLock()
	subs := slices.Clone(s.subs)
	s.mu.RUnlock()
	total := 0
	var errs []error
	for _, st := range subs {
		_, n, err := st.step(true)
		total += n
		if err != nil {
			errs = append(errs, err)
		}
	}
	return total, errors.Join(errs...)
}
