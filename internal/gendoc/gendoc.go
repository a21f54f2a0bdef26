// Package gendoc implements generic documents and services (paper
// §2.3 and definition (9)): d@any denotes any member of an equivalence
// class of documents, s@any any provider of an equivalent service. A
// Catalog records the classes and their concrete members; a Strategy
// implements the pickDoc/pickService functions — "the implementation
// of an actual pick function at p depends on p's knowledge of the
// existing documents and services, p's preferences etc."
//
// TestPaperExperiments/E6 compares strategies on a heterogeneous WAN.
package gendoc

import (
	"fmt"
	"math/rand"
	"sync"

	"axml/internal/netsim"
	"axml/internal/service"
)

// DocReplica is one concrete document d@p of an equivalence class.
type DocReplica struct {
	Doc string
	At  netsim.PeerID
}

func (r DocReplica) String() string { return r.Doc + "@" + string(r.At) }

// Strategy is the pickDoc/pickService policy.
type Strategy interface {
	// PickDoc chooses among candidate replicas for a requester.
	PickDoc(requester netsim.PeerID, class string, candidates []DocReplica) (DocReplica, error)
	// PickService chooses among candidate providers.
	PickService(requester netsim.PeerID, class string, candidates []service.Ref) (service.Ref, error)
}

// Catalog maps equivalence-class names to their members. It is safe
// for concurrent use.
type Catalog struct {
	mu       sync.RWMutex
	docs     map[string][]DocReplica
	services map[string][]service.Ref
	strategy Strategy
}

// NewCatalog creates a catalog with the given strategy (First when nil).
func NewCatalog(s Strategy) *Catalog {
	if s == nil {
		s = First{}
	}
	return &Catalog{
		docs:     map[string][]DocReplica{},
		services: map[string][]service.Ref{},
		strategy: s,
	}
}

// SetStrategy replaces the pick strategy.
func (c *Catalog) SetStrategy(s Strategy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.strategy = s
}

// RegisterDoc adds a replica to a document class.
func (c *Catalog) RegisterDoc(class string, r DocReplica) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs[class] = append(c.docs[class], r)
}

// UnregisterDoc removes a replica from a document class (view
// teardown). The surviving members go into a fresh slice: ResolveDoc
// hands the old backing array to strategies outside the lock, so it
// must never be mutated in place.
func (c *Catalog) UnregisterDoc(class string, r DocReplica) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.docs[class]
	kept := make([]DocReplica, 0, len(old))
	removed := false
	for _, have := range old {
		if !removed && have == r {
			removed = true
			continue
		}
		kept = append(kept, have)
	}
	if len(kept) == 0 {
		delete(c.docs, class)
		return
	}
	c.docs[class] = kept
}

// RegisterService adds a provider to a service class.
func (c *Catalog) RegisterService(class string, ref service.Ref) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.services[class] = append(c.services[class], ref)
}

// DocReplicas returns the members of a document class.
func (c *Catalog) DocReplicas(class string) []DocReplica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]DocReplica, len(c.docs[class]))
	copy(out, c.docs[class])
	return out
}

// ResolveDoc applies pickDoc for the requester (definition (9)).
func (c *Catalog) ResolveDoc(requester netsim.PeerID, class string) (DocReplica, error) {
	c.mu.RLock()
	cands := c.docs[class]
	strat := c.strategy
	c.mu.RUnlock()
	if len(cands) == 0 {
		return DocReplica{}, fmt.Errorf("gendoc: no replicas for document class %q", class)
	}
	return strat.PickDoc(requester, class, cands)
}

// ResolveService applies pickService for the requester.
func (c *Catalog) ResolveService(requester netsim.PeerID, class string) (service.Ref, error) {
	c.mu.RLock()
	cands := c.services[class]
	strat := c.strategy
	c.mu.RUnlock()
	if len(cands) == 0 {
		return service.Ref{}, fmt.Errorf("gendoc: no providers for service class %q", class)
	}
	return strat.PickService(requester, class, cands)
}

// First always picks the first registered member (deterministic
// baseline).
type First struct{}

func (First) PickDoc(_ netsim.PeerID, _ string, cands []DocReplica) (DocReplica, error) {
	return cands[0], nil
}

func (First) PickService(_ netsim.PeerID, _ string, cands []service.Ref) (service.Ref, error) {
	return cands[0], nil
}

// Random picks uniformly at random (load spreading without knowledge).
type Random struct {
	mu sync.Mutex
	r  *rand.Rand
}

// NewRandom creates a seeded Random strategy.
func NewRandom(seed int64) *Random { return &Random{r: rand.New(rand.NewSource(seed))} }

func (s *Random) PickDoc(_ netsim.PeerID, _ string, cands []DocReplica) (DocReplica, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cands[s.r.Intn(len(cands))], nil
}

func (s *Random) PickService(_ netsim.PeerID, _ string, cands []service.Ref) (service.Ref, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cands[s.r.Intn(len(cands))], nil
}

// RoundRobin cycles through members (uniform load balancing).
type RoundRobin struct {
	mu   sync.Mutex
	next map[string]int
}

// NewRoundRobin creates a RoundRobin strategy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{next: map[string]int{}} }

func (s *RoundRobin) PickDoc(_ netsim.PeerID, class string, cands []DocReplica) (DocReplica, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.next["d:"+class] % len(cands)
	s.next["d:"+class]++
	return cands[i], nil
}

func (s *RoundRobin) PickService(_ netsim.PeerID, class string, cands []service.Ref) (service.Ref, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.next["s:"+class] % len(cands)
	s.next["s:"+class]++
	return cands[i], nil
}

// Nearest picks the member whose link from the requester has the
// lowest latency (locality-aware pickDoc; requires network knowledge,
// as the paper allows: "p's knowledge of the existing documents").
type Nearest struct {
	Net *netsim.Network
}

func (s Nearest) PickDoc(req netsim.PeerID, _ string, cands []DocReplica) (DocReplica, error) {
	best := cands[0]
	bestLat := s.Net.LinkInfo(req, best.At).LatencyMs
	for _, c := range cands[1:] {
		if lat := s.Net.LinkInfo(req, c.At).LatencyMs; lat < bestLat {
			best, bestLat = c, lat
		}
	}
	return best, nil
}

func (s Nearest) PickService(req netsim.PeerID, _ string, cands []service.Ref) (service.Ref, error) {
	best := cands[0]
	bestLat := s.Net.LinkInfo(req, best.Provider).LatencyMs
	for _, c := range cands[1:] {
		if lat := s.Net.LinkInfo(req, c.Provider).LatencyMs; lat < bestLat {
			best, bestLat = c, lat
		}
	}
	return best, nil
}
