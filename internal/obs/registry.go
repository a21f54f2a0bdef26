package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is the unified metrics surface: named counters, gauges and
// histograms plus a bounded ring of recently completed traces. One
// registry is shared by every component of a deployment —
// axml.System wires netsim totals in as gauges, sessions bump
// plan-cache counters, wire.Server feeds streaming counters and
// records query traces, the placement controller counts decisions —
// and Snapshot is what the STATS wire verb serves.
//
// Snapshot-consistency contract: every individual metric is read
// atomically (no torn values — a counter is a single atomic load, a
// histogram is copied under its lock), but the snapshot as a whole is
// not a consistent cut across metrics: a counter incremented between
// two reads may be visible while a related one is not. All metrics
// are monotone or gauge-valued, so successive snapshots never go
// backwards on counters. Gauge functions run outside the registry
// lock, so a gauge may read a component (e.g. netsim totals) that
// advanced since the counters were read.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]func() int64
	hists    map[string]*Histogram

	traceMu  sync.Mutex
	traces   []*Trace
	traceCap int
}

// defaultTraceCap bounds the recent-traces ring.
const defaultTraceCap = 32

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]func() int64{},
		hists:    map[string]*Histogram{},
		traceCap: defaultTraceCap,
	}
}

// Counter is a monotone atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the named counter, creating it on first use. Safe
// for concurrent callers; all callers of one name share one counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers a function sampled at snapshot time — the shape for
// values owned elsewhere (netsim byte totals, plan-cache size). A
// later registration under the same name replaces the earlier one, so
// single-owner components can re-register idempotently. fn must be
// safe to call from any goroutine.
func (r *Registry) Gauge(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// Histogram accumulates observations into fixed buckets (upper-bound
// inclusive, with an implicit +Inf bucket), tracking count and sum.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	count  int64
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (ascending) on first use; later callers get the
// existing histogram regardless of the bounds they pass.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is the registry's exported state. Maps are freshly
// allocated per call; mutating a snapshot is safe.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric. See the Registry doc comment for the
// consistency contract.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	// Copy the gauge funcs out so they run without the registry lock:
	// a gauge that reads another locked component must not be able to
	// deadlock against a concurrent registration.
	gauges := make(map[string]func() int64, len(r.gauges))
	for name, fn := range r.gauges {
		gauges[name] = fn
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.RUnlock()
	for name, fn := range gauges {
		snap.Gauges[name] = fn()
	}
	if len(hists) > 0 {
		snap.Histograms = map[string]HistogramSnapshot{}
		for name, h := range hists {
			h.mu.Lock()
			snap.Histograms[name] = HistogramSnapshot{
				Bounds: append([]float64(nil), h.bounds...),
				Counts: append([]int64(nil), h.counts...),
				Count:  h.count,
				Sum:    h.sum,
			}
			h.mu.Unlock()
		}
	}
	return snap
}

// RecordTrace stores a completed trace in the recent-traces ring,
// evicting the oldest past capacity.
func (r *Registry) RecordTrace(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	r.traces = append(r.traces, t)
	if over := len(r.traces) - r.traceCap; over > 0 {
		r.traces = append([]*Trace(nil), r.traces[over:]...)
	}
}

// TraceByID returns the recorded trace with the given ID, or nil.
func (r *Registry) TraceByID(id string) *Trace {
	if r == nil {
		return nil
	}
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	for i := len(r.traces) - 1; i >= 0; i-- {
		if r.traces[i].ID == id {
			return r.traces[i]
		}
	}
	return nil
}

// TraceIDs lists the retained trace IDs, oldest first.
func (r *Registry) TraceIDs() []string {
	if r == nil {
		return nil
	}
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	ids := make([]string, len(r.traces))
	for i, t := range r.traces {
		ids[i] = t.ID
	}
	return ids
}
