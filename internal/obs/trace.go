// Package obs is the observability substrate of the framework:
// distributed query tracing and a unified metrics registry.
//
// The paper's distribution model makes a query's cost structure
// invisible from the outside — a single declarative call may fan out
// into delegated eval@p fragments, query-text fetches, shipped
// forests and service calls across many peers, and before this
// package every layer kept its own disconnected counters (session
// plan-cache stats, netsim per-link bytes, wire streaming counters,
// the placement decision log). obs gives the repo the two primitives
// every ROADMAP item after it leans on:
//
//   - Trace/Span (this file): a per-query span tree. A Trace travels
//     in the context — through core.EvalContext, across netsim
//     delegation hops (netsim.CallCtx hands the context to the remote
//     handler in-process), and over the wire as a trace ID framed
//     into QUERYX — so one statement yields one tree covering
//     parse → plan (cache hit or miss) → per-peer eval fragments →
//     ship/stream, each span carrying virtual-time interval, wall
//     duration, bytes in/out and rows yielded. Span byte accounting
//     deliberately mirrors netsim's (body + envelope overhead, only
//     for cross-peer transfers, only on success), so per-hop span
//     bytes reconcile with netsim.Stats per-link deltas.
//
//   - Registry (registry.go): counters, gauges and histograms with
//     atomic snapshots, plus a ring of recently completed traces —
//     the one surface axml.System, session.Local, wire.Server and
//     placement.Controller all feed, exposed by the STATS/TRACE wire
//     verbs.
//
// Tracing is opt-in per call: without a Trace in the context,
// StartSpan returns a nil span whose methods are no-ops, and the only
// cost on any hot path is one context value lookup at each network
// operation. Code instruments unconditionally and stays fast when
// nobody is looking.
package obs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Span is one timed operation inside a trace. Exported fields form the
// snapshot other packages (render, wire framing) consume; they must be
// read through Trace.Spans, which copies under the trace lock.
//
// Phases used by the repo: "query" (session root), "parse", "plan",
// "delegate" (shipping an expression for remote evaluation), "ship"
// (data landing: view maintenance, forwarded results), "fetchq"
// (query-text fetch, definition (7)), "call" (service call), "deploy"
// (query shipping, definition (8)), "eval" (handler side of a
// delegated fragment, at the remote peer), "exec" (update statement).
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Phase  string `json:"phase"`
	// Name is free-form detail: the query text for a "query" span, the
	// shipped expression for a "delegate" span. Truncated at capture.
	Name string `json:"name,omitempty"`
	// From/To attribute network spans to a directed link; for handler-
	// side "eval" spans To is the peer doing the work.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// StartMs is the wall-clock start relative to the trace's creation;
	// WallMs the wall-clock duration (set by End).
	StartMs float64 `json:"startMs"`
	WallMs  float64 `json:"wallMs"`
	// StartVT/EndVT delimit the span on netsim's virtual clock, when
	// the operation lives on it (network and evaluation spans).
	StartVT float64 `json:"startVT,omitempty"`
	EndVT   float64 `json:"endVT,omitempty"`
	// BytesOut/BytesIn are the accounted transfer sizes (request and
	// reply leg), matching netsim's per-link accounting.
	BytesOut int64 `json:"bytesOut,omitempty"`
	BytesIn  int64 `json:"bytesIn,omitempty"`
	// Rows counts result trees yielded through this span.
	Rows int64 `json:"rows,omitempty"`
	// Attrs carries small key/value annotations (e.g. cache=hit).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Err records the failure that ended the span, if any.
	Err string `json:"err,omitempty"`

	tr        *Trace
	wallStart time.Time
	ended     bool
}

// maxSpanName bounds captured span names so traces of large queries
// or expressions stay small.
const maxSpanName = 120

// Trace is one query's span collection. Concurrent span creation and
// mutation (delegated fragments may overlap) serialize on the trace's
// lock; Spans returns a consistent copy.
type Trace struct {
	ID string

	mu     sync.Mutex
	nextID uint64
	spans  []*Span
	start  time.Time
}

// NewTrace creates an empty trace.
func NewTrace(id string) *Trace {
	return &Trace{ID: id, start: time.Now()}
}

// Spans returns a snapshot of the spans recorded so far, in creation
// order. Attr maps are copied; mutating the result is safe.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	for i, sp := range t.spans {
		out[i] = *sp
		if sp.Attrs != nil {
			attrs := make(map[string]string, len(sp.Attrs))
			for k, v := range sp.Attrs {
				attrs[k] = v
			}
			out[i].Attrs = attrs
		}
		out[i].tr = nil
	}
	return out
}

// Len reports how many spans the trace holds.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

type traceCtxKey struct{}
type spanCtxKey struct{}

// WithTrace arms a context for tracing: spans started under the
// returned context attach to t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// FromContext returns the trace carried by the context, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// StartSpan opens a span under the context's trace and returns a
// context whose current span is the new one — spans started under the
// returned context become its children, which is how parent links
// follow delegation across peers (the context rides netsim.CallCtx to
// the remote handler). Without a trace in the context it returns
// (ctx, nil); a nil *Span is valid and all its methods are no-ops, so
// call sites instrument unconditionally.
func StartSpan(ctx context.Context, phase, name string) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanCtxKey{}).(uint64)
	name = clipName(name)
	now := time.Now()
	t.mu.Lock()
	t.nextID++
	sp := &Span{
		ID: t.nextID, Parent: parent, Phase: phase, Name: name,
		StartMs: float64(now.Sub(t.start)) / float64(time.Millisecond),
		tr:      t, wallStart: now,
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, sp.ID), sp
}

func clipName(name string) string {
	if len(name) > maxSpanName {
		return name[:maxSpanName] + "…"
	}
	return name
}

// Rename names the span after what it covers once that is known, such
// as a query's parsed text.
func (s *Span) Rename(name string) {
	if s == nil {
		return
	}
	name = clipName(name)
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.Name = name
}

// End closes the span, fixing its wall duration. Idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.WallMs = float64(time.Since(s.wallStart)) / float64(time.Millisecond)
}

// SetNet attributes the span to the directed from→to link and records
// its virtual start time.
func (s *Span) SetNet(from, to string, startVT float64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.From, s.To, s.StartVT = from, to, startVT
}

// EndVTAt records the virtual completion time.
func (s *Span) EndVTAt(vt float64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.EndVT = vt
}

// AddBytes adds accounted transfer sizes (request leg, reply leg).
func (s *Span) AddBytes(out, in int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.BytesOut += out
	s.BytesIn += in
}

// AddRows adds yielded result trees.
func (s *Span) AddRows(n int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.Rows += n
}

// Set attaches a key/value annotation.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.Attrs == nil {
		s.Attrs = map[string]string{}
	}
	s.Attrs[key] = value
}

// Fail records the error that ended the span.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.Err = fmt.Sprintf("%v", err)
}
