// Package session is the unified client-facing query pipeline of the
// framework: one handle — obtained from a local system (axml.Session)
// or from a wire connection (wire.Dial) — that parses, optimizes
// (view-aware), caches plans and evaluates, with context propagation
// all the way into remote work.
//
// The paper's client model (§2.1) is a single declarative entrypoint
// that hides placement, optimization and transport; DXQ and ViP2P make
// the same point for their network interfaces. Before this package the
// repo exposed the plumbing instead: callers hand-chained ParseQuery →
// Optimize → Eval locally, and spoke a second, incompatible API over
// the wire. Session collapses both into
//
//	sess, _ := sys.Session("client")        // or axml.Dial(addr)
//	rows, err := sess.Query(ctx, `for $i in doc("catalog")/item …`)
//	for rows.Next() { use(rows.Node()) }
//
// Plans are cached per session, keyed by the normalized query shape
// (view.QueryKey — conjunct order and formatting don't fragment the
// cache) and invalidated by view-catalog generation: a DefineView or
// DropView bumps view.Manager.Generation and every older plan
// re-optimizes on next use, so a cached plan can never read a dropped
// view or miss a new one. Prepare pins this pipeline on one statement
// for repeated execution: the optimizer search runs once, not per
// call.
//
// Failures carry kind, not just text: ErrCanceled, ErrNoSuchDoc,
// ErrNoSuchService, ErrPeerDown compare identically (errors.Is) for
// local and remote sessions — the wire protocol transports the error
// code, not just the message.
package session

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/obs"
	"axml/internal/opt"
	"axml/internal/peer"
	"axml/internal/rewrite"
	"axml/internal/view"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// Typed failure kinds, shared by every backend. ErrCanceled &co are
// re-exported from core so that a session layered over a local system
// and one layered over a wire connection agree under errors.Is.
var (
	ErrCanceled      = core.ErrCanceled
	ErrNoSuchDoc     = core.ErrNoSuchDoc
	ErrNoSuchService = core.ErrNoSuchService
	ErrPeerDown      = core.ErrPeerDown

	// ErrBadQuery wraps parse and analysis failures of the submitted
	// source text.
	ErrBadQuery = errors.New("bad query")

	// ErrClosed is returned by operations on a closed session.
	ErrClosed = errors.New("session closed")

	// ErrViewMoved marks a streaming query whose plan read a
	// materialized view that was migrated, replicated away or dropped
	// while the stream was open (adaptive placement moves views at
	// runtime). The stream fails with this typed error instead of an
	// opaque resolution failure or silently stale rows; re-running the
	// query re-plans against the new placement.
	ErrViewMoved = errors.New("view placement changed mid-stream")
)

// Session is the unified query interface over an AXML deployment. A
// local session evaluates against an in-process system; a wire session
// (wire.Dial) against a remote peer — same methods, same option set,
// same error kinds, same streaming Rows.
type Session interface {
	// Query runs one query and streams its result forest.
	Query(ctx context.Context, src string, opts ...Option) (*Rows, error)
	// Exec runs a statement for its effect — `delete <path>`,
	// `replace <path> with <xml>`, or a query whose results are
	// discarded — and reports how many nodes (or result trees) it
	// touched.
	Exec(ctx context.Context, src string, opts ...Option) (int, error)
	// Prepare validates src once and returns a statement handle whose
	// repeated Query calls skip the per-call planning work.
	Prepare(ctx context.Context, src string) (*Stmt, error)
	// Close releases the session. In-flight calls may fail with
	// ErrClosed or ErrCanceled.
	Close() error
}

// Config collects the per-call options. Backends ignore knobs that do
// not apply to them (a wire client cannot disable the remote server's
// optimizer cache, but it forwards the intent).
type Config struct {
	// NoOptimize evaluates the naive definition-(1)–(9) plan without
	// the rewrite search (and without consulting the plan cache).
	NoOptimize bool
	// NoPlanCache forces a fresh optimizer run even for known shapes.
	// The plan is still stored; benchmarks use this as the
	// optimize-every-time baseline.
	NoPlanCache bool
	// ConsistentView refreshes every materialized view the chosen plan
	// reads before evaluating, so the answer reflects the current base
	// data rather than the last refresh.
	ConsistentView bool
	// Timeout, when positive, derives a child context with that
	// deadline around the call.
	Timeout time.Duration
	// MaxPlans caps the optimizer search (0 = the optimizer default).
	MaxPlans int
	// TraceID asks the backend to record a query trace under this ID.
	// A wire client frames it as +trace=<id> so the server builds the
	// span tree on its side (fetch it back with TRACE <id>); local
	// sessions trace through the context instead (obs.WithTrace), which
	// carries the whole trace object, not just an ID.
	TraceID string
	// SnapshotIsolation pins the call to one epoch of the evaluating
	// peer's document store before the first row is produced: every
	// doc("name") the plan resolves at that peer answers from the pinned
	// epoch, so concurrent writers never change (or tear) the stream's
	// view of the data. The pin is dropped when the stream ends. Wire
	// sessions forward the intent as the +snapshot flag and the server
	// pins on its side. Reads at other peers (delegated sub-plans) pin
	// their own per-query snapshots as always — the option widens the
	// pin from per-query to per-statement at the session's home peer.
	SnapshotIsolation bool
	// NoTraffic keeps the call out of the placement demand counters
	// (the session's TrafficSink is not told about it). Federation uses
	// it for forwarded queries: the member that forwarded already
	// recorded the demand where the consumer sits, so the serving
	// deployment must not count the same query a second time — that
	// would attribute the demand to the wrong member and make the
	// coordinator chase its own forwarding traffic. A wire client frames
	// the intent as the +fwd flag.
	NoTraffic bool
}

// Option is a functional option of Session.Query/Exec and Stmt.Query.
type Option func(*Config)

// WithNoOptimize evaluates the query as written: no rewrite search, no
// view rewriting, no plan cache.
func WithNoOptimize() Option { return func(c *Config) { c.NoOptimize = true } }

// WithNoPlanCache re-runs the optimizer even when a cached plan
// exists.
func WithNoPlanCache() Option { return func(c *Config) { c.NoPlanCache = true } }

// WithConsistentView refreshes the views the plan reads before
// answering from them.
func WithConsistentView() Option { return func(c *Config) { c.ConsistentView = true } }

// WithTimeout bounds the call by a deadline relative to its start.
func WithTimeout(d time.Duration) Option { return func(c *Config) { c.Timeout = d } }

// WithMaxPlans caps the optimizer's plan search for this call.
func WithMaxPlans(n int) Option { return func(c *Config) { c.MaxPlans = n } }

// WithTraceID asks the backend to trace this call under the given ID
// (wire sessions; local sessions pass a trace in the context via
// obs.WithTrace instead).
func WithTraceID(id string) Option { return func(c *Config) { c.TraceID = id } }

// WithNoTraffic keeps this call out of the placement demand counters.
// Federation forwards queries with it so demand is attributed once, at
// the member where the consumer actually sits.
func WithNoTraffic() Option { return func(c *Config) { c.NoTraffic = true } }

// WithSnapshotIsolation pins the statement to one epoch of the
// session peer's document store: the whole stream reads the documents
// exactly as they were when the call started, no matter what concurrent
// writers publish meanwhile. See Config.SnapshotIsolation.
func WithSnapshotIsolation() Option { return func(c *Config) { c.SnapshotIsolation = true } }

// BuildConfig folds options into a Config. Backends (wire) use it to
// interpret the shared option vocabulary.
func BuildConfig(opts []Option) Config {
	var c Config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Stats counts plan-cache activity of a local session.
type Stats struct {
	// Hits: calls answered by a cached plan (no optimizer search).
	Hits uint64
	// Misses: calls that ran the optimizer (first sight of a shape, or
	// WithNoPlanCache).
	Misses uint64
	// Invalidations: cached plans discarded because the view catalog
	// changed underneath them.
	Invalidations uint64
	// Evictions: cached plans dropped because the cache reached its
	// size cap. The victim is the entry with the lowest retention
	// score — estimated planning benefit weighted by hit count — with
	// least-recently-used as the tie-break.
	Evictions uint64
}

// HitRate returns the fraction of planned calls served from cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// cachedPlan is one plan-cache entry: the normalized shape key, the
// optimized expression, the view-catalog generation it was derived
// under, and the retention weights of the cost-aware eviction policy.
type cachedPlan struct {
	key  string
	expr core.Expr
	gen  uint64
	// benefit is the optimizer's estimated cost saving of this plan
	// over the naive plan (opt.DefaultWeights scalar). A plan that
	// saves nothing is cheap to lose — re-deriving it is one search
	// that converges immediately; a plan whose search found a big win
	// is the one worth keeping under cache pressure.
	benefit float64
	// uses counts cache hits: repeated shapes amortize their search.
	uses uint64
}

// DefaultPlanCacheSize bounds a session's plan cache when no explicit
// WithPlanCacheSize is given. Long-lived server sessions see
// adversarial shape churn (every distinct normalized query is one
// entry); an unbounded map would grow with the lifetime of the
// process.
const DefaultPlanCacheSize = 256

// Local is the Session implementation over an in-process core.System:
// the one query pipeline the facade, the wire server and the bench
// experiments all share.
type Local struct {
	sys     *core.System
	views   *view.Manager
	at      netsim.PeerID
	sink    TrafficSink
	metrics *obs.Registry

	mu      sync.Mutex
	plans   map[string]*list.Element // shape key → element of order
	order   *list.List               // front = most recently used; values are *cachedPlan
	planCap int
	stats   Stats
	closed  bool
}

// TrafficSink receives one notification per executed query. The
// adaptive-placement observer (internal/placement) implements it to
// learn which peers read which documents and views; anything with the
// same method set can tap the stream.
type TrafficSink interface {
	// ObserveQuery reports an execution: the evaluating peer, the
	// normalized query-shape key (view.QueryKey), and the documents the
	// chosen plan reads — view documents carry the "view:" prefix, so
	// view demand is directly attributable.
	ObserveQuery(at netsim.PeerID, shape string, docs []string)
}

// LocalOption configures a Local session at construction time.
type LocalOption func(*Local)

// WithPlanCacheSize caps the session's plan cache at n entries,
// evicting least-recently-used plans beyond it. n <= 0 restores the
// default (DefaultPlanCacheSize).
func WithPlanCacheSize(n int) LocalOption {
	return func(s *Local) {
		if n <= 0 {
			n = DefaultPlanCacheSize
		}
		s.planCap = n
	}
}

// WithTrafficSink attaches a per-query traffic observer to the
// session. Every Query/Exec/Stmt execution reports its evaluating
// peer, shape key and the documents its plan reads; the adaptive-
// placement controller aggregates these into per-view demand.
func WithTrafficSink(sink TrafficSink) LocalOption {
	return func(s *Local) { s.sink = sink }
}

// WithMetrics attaches a metrics registry: the session then mirrors
// its plan-cache counters into session.plan_cache.* and observes
// per-query first-row latency, so a deployment-wide obs.Registry sees
// the same numbers Stats reports.
func WithMetrics(reg *obs.Registry) LocalOption {
	return func(s *Local) { s.metrics = reg }
}

// count bumps a registry counter, when a registry is attached.
func (s *Local) count(name string) {
	if s.metrics != nil {
		s.metrics.Counter(name).Inc()
	}
}

// NewLocal opens a session evaluating at peer `at` of the given
// system. The view manager supplies view-aware optimization and the
// cache-invalidation generation; it may not be nil (pass a fresh
// manager for view-less systems).
func NewLocal(sys *core.System, views *view.Manager, at netsim.PeerID, opts ...LocalOption) (*Local, error) {
	if views == nil {
		return nil, fmt.Errorf("session: nil view manager")
	}
	if _, ok := sys.Peer(at); !ok {
		return nil, fmt.Errorf("session: unknown peer %q", at)
	}
	s := &Local{sys: sys, views: views, at: at,
		plans: map[string]*list.Element{}, order: list.New(),
		planCap: DefaultPlanCacheSize}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// PlanCacheLen reports how many plans the session currently caches.
func (s *Local) PlanCacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.plans)
}

// At returns the peer this session evaluates at.
func (s *Local) At() netsim.PeerID { return s.at }

// Stats returns a snapshot of the plan-cache counters.
//
// Snapshot-consistency contract: the struct is copied in one critical
// section of the session lock — the same lock every counter update
// holds — so the four counters form a consistent cut: Hits + Misses
// is exactly the number of planned calls that reached a verdict at
// snapshot time. All counters are monotone.
func (s *Local) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close marks the session closed and drops its cached plans.
func (s *Local) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.plans = map[string]*list.Element{}
	s.order = list.New()
	return nil
}

func (s *Local) alive() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return nil
}

// Query implements Session: parse → plan (cached) → open a pull-based
// cursor → stream. Rows.Next drives the evaluation on demand: the
// first rows are available while the rest of the result is still
// unevaluated, and Rows.Close abandons the remaining work. The first
// row is pulled eagerly so that evaluation-setup failures (missing
// documents, dead peers) surface from Query itself.
func (s *Local) Query(ctx context.Context, src string, opts ...Option) (*Rows, error) {
	if err := s.alive(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		// Checked before planning: an expired context must not pay for
		// (or pollute the counters of) an optimizer search.
		return nil, fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	cfg := BuildConfig(opts)
	start := time.Now()
	// The root span of the query's trace (when the context carries
	// one): parse and plan become its first children, every network
	// hop of the evaluation nests below, and the span closes when the
	// stream ends.
	ctx, root := obs.StartSpan(ctx, "query", src)
	s.count("session.queries")

	_, psp := obs.StartSpan(ctx, "parse", "")
	q, err := parseQuery(src)
	if err != nil {
		psp.Fail(err)
		psp.End()
		root.Fail(err)
		root.End()
		return nil, err
	}
	psp.End()

	_, plsp := obs.StartSpan(ctx, "plan", "")
	expr, hit, err := s.plan(q, &cfg)
	if err != nil {
		plsp.Fail(err)
		plsp.End()
		root.Fail(err)
		root.End()
		return nil, err
	}
	if !cfg.NoOptimize {
		if hit {
			plsp.Set("cache", "hit")
		} else {
			plsp.Set("cache", "miss")
		}
	}
	plsp.End()

	if !cfg.NoTraffic {
		s.observe(q, expr)
	}
	rows, err := s.rowsFor(ctx, expr, &cfg)
	if err != nil {
		root.Fail(err)
		root.End()
		return nil, err
	}
	if s.metrics != nil {
		s.metrics.Histogram("session.query.first_row_ms", []float64{0.1, 1, 10, 100, 1000}).
			Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
	return traceRows(rows, root), nil
}

// traceRows ties a query's root span to its result stream: each
// pulled tree counts as a row, the stream's virtual completion time
// becomes the span's EndVT, and the span closes when the stream ends
// (exhaustion, failure, or Close — End is idempotent).
func traceRows(rows *Rows, root *obs.Span) *Rows {
	if root == nil {
		return rows
	}
	pull := rows.pull
	rows.pull = func() (*xmltree.Node, error) {
		n, err := pull()
		switch {
		case err != nil:
			root.Fail(err)
			finishSpan(rows, root)
		case n == nil:
			finishSpan(rows, root)
		default:
			root.AddRows(1)
		}
		return n, err
	}
	closeFn := rows.closeFn
	rows.closeFn = func() error {
		var err error
		if closeFn != nil {
			err = closeFn()
		}
		finishSpan(rows, root)
		return err
	}
	return rows
}

// finishSpan stamps the stream's virtual completion time and ends the
// root span.
func finishSpan(rows *Rows, root *obs.Span) {
	if rows.vtFn != nil {
		root.EndVTAt(rows.vtFn())
	}
	root.End()
}

// observe reports one execution to the traffic sink, if any.
func (s *Local) observe(q *xquery.Query, expr core.Expr) {
	if s.sink == nil {
		return
	}
	s.sink.ObserveQuery(s.at, view.QueryKey(q), planDocs(expr))
}

// rowsFor opens the result stream for a planned expression under the
// call's context rules (timeout, consistent views, snapshot
// isolation).
func (s *Local) rowsFor(ctx context.Context, expr core.Expr, cfg *Config) (*Rows, error) {
	guard := s.viewGuard(expr)
	cancel := func() {}
	if cfg.Timeout > 0 {
		// The deadline spans the whole stream; it is released as soon
		// as the stream ends — exhaustion, error, or Close, whichever
		// comes first — so an un-Closed but drained Rows does not pin
		// the timer for the rest of the timeout.
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
	}
	// Refresh before pinning: the refresh commits to the session peer's
	// store, and a snapshot pinned ahead of it would answer from the
	// epoch before — missing writes acknowledged before this read.
	if cfg.ConsistentView {
		for _, name := range planViews(expr) {
			if _, err := s.views.RefreshContext(ctx, name); err != nil {
				cancel()
				return nil, movedOr(guard, err)
			}
		}
	}
	if cfg.SnapshotIsolation {
		if p, ok := s.sys.Peer(s.at); ok {
			// Pin the session peer's current epoch for the whole stream;
			// prepareQuery finds the handle in the context and resolves
			// local documents from it instead of pinning per query.
			h := p.Snapshot()
			rows, err := s.openRows(core.WithDocSnapshot(ctx, h), expr, guard, cancel)
			if err != nil {
				h.Release()
				return nil, err
			}
			return pinRows(rows, h), nil
		}
	}
	return s.openRows(ctx, expr, guard, cancel)
}

// movedOr attributes a failure while the view catalog moved underneath
// the call to the move — the typed error tells the caller to simply
// re-run, instead of surfacing a transient resolution error from a
// placement that no longer exists.
func movedOr(guard func() error, err error) error {
	if gerr := guard(); gerr != nil {
		return gerr
	}
	return err
}

// pinRows ties a snapshot handle's lifetime to a result stream: the
// pin drops when the stream ends — exhaustion, failure, or Close,
// whichever comes first (Release is idempotent).
func pinRows(rows *Rows, h *peer.Handle) *Rows {
	pull := rows.pull
	rows.pull = func() (*xmltree.Node, error) {
		n, err := pull()
		if err != nil || n == nil {
			h.Release()
		}
		return n, err
	}
	closeFn := rows.closeFn
	rows.closeFn = func() error {
		var err error
		if closeFn != nil {
			err = closeFn()
		}
		h.Release()
		return err
	}
	return rows
}

// openRows evaluates a planned expression into a result stream. cancel
// releases the call's deadline; it runs when the stream ends or fails
// to open.
func (s *Local) openRows(ctx context.Context, expr core.Expr, guard func() error, cancel func()) (*Rows, error) {
	cur, err := s.sys.EvalCursorContext(ctx, s.at, expr)
	if err != nil {
		cancel()
		return nil, movedOr(guard, err)
	}
	first, err := cur.Next()
	if err != nil {
		_ = cur.Close()
		cancel()
		return nil, movedOr(guard, err)
	}
	released := false
	release := func() {
		if !released {
			released = true
			cancel()
		}
	}
	delivered := first == nil
	if delivered {
		release() // empty result: nothing left to bound
	}
	pull := func() (*xmltree.Node, error) {
		if err := guard(); err != nil {
			release()
			return nil, err
		}
		if !delivered {
			delivered = true
			return first, nil
		}
		n, err := cur.Next()
		if err != nil {
			err = movedOr(guard, err)
		}
		if err != nil || n == nil {
			release()
		}
		return n, err
	}
	rows := NewCursorRows(pull, func() error {
		err := cur.Close()
		release()
		return err
	})
	rows.vtFn = cur.VT
	return rows, nil
}

// viewGuard builds the mid-stream placement check of a planned
// expression: a cheap generation probe per pull, and only when the
// view catalog actually changed, a check that every placement the
// plan could be reading still exists. The snapshot pins the placement
// set at open time — the stream fails with ErrViewMoved only when one
// of those copies disappeared (migrated away, dropped, evicted), since
// the cursor may be reading exactly that copy. Additive changes — a
// new replica of this view, an unrelated view defined elsewhere —
// keep the stream running.
func (s *Local) viewGuard(expr core.Expr) func() error {
	names := planViews(expr)
	if len(names) == 0 {
		return func() error { return nil }
	}
	gen := s.views.Generation()
	snap := make(map[string][]netsim.PeerID, len(names))
	for _, name := range names {
		if ps, ok := s.views.PlacementsOf(name); ok {
			snap[name] = ps
		}
	}
	return func() error {
		cur := s.views.Generation()
		if cur == gen {
			return nil
		}
		for _, name := range names {
			ps, ok := s.views.PlacementsOf(name)
			if !ok {
				return fmt.Errorf("%w: view %q was dropped", ErrViewMoved, name)
			}
			if !containsAll(ps, snap[name]) {
				return fmt.Errorf("%w: view %q moved", ErrViewMoved, name)
			}
		}
		gen = cur // additive change only: stop deep-checking until the next bump
		return nil
	}
}

// containsAll reports whether every peer of want is present in have
// (both sorted).
func containsAll(have, want []netsim.PeerID) bool {
	i := 0
	for _, w := range want {
		for i < len(have) && have[i] < w {
			i++
		}
		if i >= len(have) || have[i] != w {
			return false
		}
	}
	return true
}

// Exec implements Session. Update statements are location-transparent
// like Query: the target nodes are modified at whichever peer hosts
// the referenced document (the session's own peer preferred).
// Anything else evaluates through the query pipeline with the results
// discarded.
func (s *Local) Exec(ctx context.Context, src string, opts ...Option) (int, error) {
	if err := s.alive(); err != nil {
		return 0, err
	}
	cfg := BuildConfig(opts)
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	if upd, ok, err := ParseUpdate(src); ok {
		if err != nil {
			return 0, err
		}
		p, err := s.updateHost(upd)
		if err != nil {
			return 0, err
		}
		return ApplyUpdate(p, upd)
	}
	rows, err := s.Query(ctx, src, opts...)
	if err != nil {
		return 0, err
	}
	forest, err := rows.Collect()
	if err != nil {
		return 0, err
	}
	return len(forest), nil
}

// planDocs collects the names of every document a plan reads — view
// documents (the "view:" prefix) and base documents alike — by walking
// the expression tree and the document references of its embedded
// queries.
func planDocs(e core.Expr) []string {
	seen := map[string]bool{}
	var names []string
	walkPlanDocs(e, func(doc string) {
		if !seen[doc] {
			seen[doc] = true
			names = append(names, doc)
		}
	})
	return names
}

// updateHost resolves the peer an update statement applies at: the
// session's peer when it hosts the referenced document, else the first
// hosting peer in deterministic order.
func (s *Local) updateHost(upd *Update) (*peer.Peer, error) {
	docs := upd.Query.DocRefs()
	if len(docs) == 0 {
		return nil, fmt.Errorf("%w: update selects no document", ErrBadQuery)
	}
	if p, ok := s.sys.Peer(s.at); ok && p.HasDocument(docs[0]) {
		return p, nil
	}
	for _, id := range s.sys.Peers() {
		if p, ok := s.sys.Peer(id); ok && p.HasDocument(docs[0]) {
			return p, nil
		}
	}
	return nil, fmt.Errorf("session: %w: %q", ErrNoSuchDoc, docs[0])
}

// Prepare implements Session: the statement is parsed and optimized
// now; each subsequent Stmt.Query reuses the cached plan (re-planning
// only if the view catalog changed in between).
func (s *Local) Prepare(ctx context.Context, src string) (*Stmt, error) {
	if err := s.alive(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	q, err := parseQuery(src)
	if err != nil {
		return nil, err
	}
	// Plan eagerly so the first Query pays nothing extra and syntax or
	// planning errors surface at Prepare time, where they belong.
	warm := Config{}
	if _, _, err := s.plan(q, &warm); err != nil {
		return nil, err
	}
	run := func(ctx context.Context, opts ...Option) (*Rows, error) {
		if err := s.alive(); err != nil {
			return nil, err
		}
		cfg := BuildConfig(opts)
		expr, _, err := s.plan(q, &cfg)
		if err != nil {
			return nil, err
		}
		if !cfg.NoTraffic {
			s.observe(q, expr)
		}
		return s.rowsFor(ctx, expr, &cfg)
	}
	return NewStmt(src, run, nil), nil
}

// plan resolves the expression to evaluate: the naive plan when the
// optimizer is off, else a cached or freshly optimized plan keyed by
// the normalized query shape and the view-catalog generation. The
// second return reports whether the plan came from the cache. An
// optimizer failure while the view catalog changed underneath the
// search (a placement migrating away mid-estimate) is retried once
// against the new catalog before it surfaces.
func (s *Local) plan(q *xquery.Query, cfg *Config) (core.Expr, bool, error) {
	for attempt := 0; ; attempt++ {
		gen := s.views.Generation()
		expr, hit, err := s.planOnce(q, cfg)
		if err == nil || attempt == 1 || s.views.Generation() == gen {
			return expr, hit, err
		}
	}
}

func (s *Local) planOnce(q *xquery.Query, cfg *Config) (core.Expr, bool, error) {
	naive := &core.Query{Q: q, At: s.at}
	if cfg.NoOptimize {
		return naive, false, nil
	}
	key := view.QueryKey(q)
	gen := s.views.Generation()

	s.mu.Lock()
	if elem, ok := s.plans[key]; ok {
		cp := elem.Value.(*cachedPlan)
		if cp.gen != gen {
			s.order.Remove(elem)
			delete(s.plans, key)
			s.stats.Invalidations++
			s.count("session.plan_cache.invalidations")
		} else if !cfg.NoPlanCache {
			s.stats.Hits++
			cp.uses++
			s.order.MoveToFront(elem)
			expr := cp.expr
			s.mu.Unlock()
			s.count("session.plan_cache.hits")
			return expr, true, nil
		}
	}
	s.stats.Misses++
	s.mu.Unlock()
	s.count("session.plan_cache.misses")

	o := opt.Options{
		MaxPlans:   cfg.MaxPlans,
		ExtraRules: []rewrite.Rule{s.views.Rule()},
	}
	plan, _, err := opt.Optimize(s.sys, s.at, naive, o)
	if err != nil {
		return nil, false, err
	}
	// The retention weight of the cost-aware eviction policy: how much
	// the optimizer thinks this plan saves over the naive one.
	benefit := plan.BaseCost - plan.Cost
	if benefit < 0 {
		benefit = 0
	}
	s.mu.Lock()
	s.storePlan(&cachedPlan{key: key, expr: plan.Expr, gen: gen, benefit: benefit})
	s.mu.Unlock()
	return plan.Expr, false, nil
}

// storePlan inserts (or refreshes) a cache entry as most-recently-used
// and evicts entries beyond the cap. Caller holds s.mu.
func (s *Local) storePlan(cp *cachedPlan) {
	if elem, ok := s.plans[cp.key]; ok {
		cp.uses = elem.Value.(*cachedPlan).uses
		elem.Value = cp
		s.order.MoveToFront(elem)
		return
	}
	s.plans[cp.key] = s.order.PushFront(cp)
	for s.order.Len() > s.planCap {
		s.evictOne()
	}
}

// evictOne drops the cached plan with the lowest retention score.
// Pure-LRU eviction treats a plan whose search saved three WAN
// round-trips the same as one the optimizer could not improve; the
// score — estimated benefit weighted by hit count — keeps the
// expensive-to-lose plans and lets the worthless ones churn. Recency
// still matters twice: the most-recently-used entry is never the
// victim, and ties fall to the least-recently-used candidate. Caller
// holds s.mu.
func (s *Local) evictOne() {
	var worst *list.Element
	worstScore := 0.0
	for elem := s.order.Back(); elem != nil && elem != s.order.Front(); elem = elem.Prev() {
		cp := elem.Value.(*cachedPlan)
		score := float64(1+cp.uses) * (cp.benefit + 1)
		if worst == nil || score < worstScore {
			worst, worstScore = elem, score
		}
	}
	if worst == nil {
		worst = s.order.Back()
	}
	s.order.Remove(worst)
	delete(s.plans, worst.Value.(*cachedPlan).key)
	s.stats.Evictions++
	s.count("session.plan_cache.evictions")
}

// parseQuery wraps parse failures in ErrBadQuery.
func parseQuery(src string) (*xquery.Query, error) {
	q, err := xquery.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return q, nil
}

// planViews collects the names of the materialized views a plan reads.
func planViews(e core.Expr) []string {
	seen := map[string]bool{}
	var names []string
	walkPlanDocs(e, func(doc string) {
		if !strings.HasPrefix(doc, view.DocPrefix) {
			return
		}
		name := strings.TrimPrefix(doc, view.DocPrefix)
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	})
	return names
}

// walkPlanDocs visits every document name a plan reads, walking the
// expression tree and the document references of its embedded queries.
func walkPlanDocs(e core.Expr, note func(doc string)) {
	var walk func(core.Expr)
	walk = func(e core.Expr) {
		switch v := e.(type) {
		case *core.Doc:
			note(v.Name)
		case *core.Query:
			for _, doc := range v.Q.DocRefs() {
				note(doc)
			}
			for _, a := range v.Args {
				walk(a)
			}
		case *core.QueryVal:
			for _, doc := range v.Q.DocRefs() {
				note(doc)
			}
		case *core.EvalAt:
			walk(v.E)
		case *core.Send:
			walk(v.Payload)
		case *core.Relay:
			walk(v.Payload)
		case *core.ServiceCall:
			for _, p := range v.Params {
				walk(p)
			}
		}
	}
	walk(e)
}
