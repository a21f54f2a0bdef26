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
// Plans are cached per session. A statement text the session has
// answered before is answered from its plan without a parse; a new
// text is parsed and keyed by its normalized shape (view.QueryKey —
// conjunct order and formatting don't fragment the cache). Plans are
// invalidated by view-catalog generation: a DefineView or DropView
// bumps view.Manager.Generation and every older plan re-optimizes on
// next use, so a cached plan can never read a dropped view or miss a
// new one. Prepare plans one statement eagerly for repeated execution:
// the optimizer search runs once, not per call.
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
	"slices"
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
	// Query runs one statement of the xquery grammar. A query streams
	// its result forest. An update (`delete <path>`, `replace <path>
	// with <xml>`) applies as one transaction and answers one row
	// <x:ok n="K"/>; a declaration (`declare view "v" as <query>`,
	// `declare document "d" as <xml>`) takes effect at the session's
	// peer and answers <x:ok/>.
	Query(ctx context.Context, src string, opts ...Option) (*Rows, error)
	// Exec runs a statement through Query for its effect and reports
	// how many nodes an update touched, or how many trees a query
	// returned (session.Exec).
	Exec(ctx context.Context, src string, opts ...Option) (int, error)
	// Prepare validates src once and returns a statement handle whose
	// repeated Query calls skip the per-call planning work.
	Prepare(ctx context.Context, src string) (*Stmt, error)
	// Close releases the session. In-flight calls may fail with
	// ErrClosed or ErrCanceled.
	Close() error
}

// Config collects the per-call options. Backends ignore knobs that do
// not apply to them (a wire client frames the ones the server reads as
// request flags and applies its timeout itself).
type Config struct {
	// NoOptimize evaluates the naive definition-(1)–(9) plan without
	// the rewrite search (and without consulting the plan cache).
	NoOptimize bool
	// ConsistentView refreshes every materialized view the chosen plan
	// reads before evaluating, so the answer reflects the current base
	// data rather than the last refresh.
	ConsistentView bool
	// Timeout, when positive, derives a child context with that
	// deadline around the call.
	Timeout time.Duration
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

// WithConsistentView refreshes the views the plan reads before
// answering from them.
func WithConsistentView() Option { return func(c *Config) { c.ConsistentView = true } }

// WithTimeout bounds the call by a deadline relative to its start.
func WithTimeout(d time.Duration) Option { return func(c *Config) { c.Timeout = d } }

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

// cachedPlan is one plan-cache entry: the normalized shape key, the
// optimized expression with the documents and views it reads, and the
// view-catalog generation it was derived under.
type cachedPlan struct {
	key   string
	expr  core.Expr
	docs  []string // every document expr reads, found once when the plan is made
	views []string // the names of the views among docs
	gen   uint64
	text  string // the last statement text that reached the entry (Local.texts); guarded by Local.mu
}

// DefaultPlanCacheSize bounds a session's plan cache, evicting the
// least recently used plan beyond it. Long-lived server sessions see
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
	texts   map[string]*list.Element // statement text → element of its shape, one text per element
	order   *list.List               // front = most recently used; values are *cachedPlan
	planCap int
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
	// view demand is directly attributable. docs is the plan's own
	// slice: a sink must not change it.
	ObserveQuery(at netsim.PeerID, shape string, docs []string)
}

// LocalOption configures a Local session at construction time.
type LocalOption func(*Local)

// WithTrafficSink attaches a per-query traffic observer to the
// session. Every Query/Exec/Stmt execution reports its evaluating
// peer, shape key and the documents its plan reads; the adaptive-
// placement controller aggregates these into per-view demand.
func WithTrafficSink(sink TrafficSink) LocalOption {
	return func(s *Local) { s.sink = sink }
}

// WithMetrics gives the session the registry it counts into: its
// plan-cache counters (session.plan_cache.hits, .misses,
// .invalidations, .evictions) and per-query first-row latency. Without
// it the session counts into a registry of its own.
func WithMetrics(reg *obs.Registry) LocalOption {
	return func(s *Local) { s.metrics = reg }
}

// count bumps a counter of the session's registry.
func (s *Local) count(name string) { s.metrics.Counter(name).Inc() }

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
		plans: map[string]*list.Element{}, texts: map[string]*list.Element{}, order: list.New(),
		planCap: DefaultPlanCacheSize}
	for _, o := range opts {
		o(s)
	}
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	return s, nil
}

// At returns the peer this session evaluates at.
func (s *Local) At() netsim.PeerID { return s.at }

// Close marks the session closed and drops its cached plans.
func (s *Local) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.plans = map[string]*list.Element{}
	s.texts = map[string]*list.Element{}
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

// Query implements Session. A query goes parse → plan (cached) → open
// a pull-based cursor → stream; a text the session answered before
// skips the parse and goes straight to its cached plan while that is
// current. Rows.Next drives the evaluation on demand: the first rows
// are available while the rest of the result is still unevaluated,
// and Rows.Close abandons the remaining work. The first row is pulled
// eagerly so that evaluation-setup failures (missing documents, dead
// peers) surface from Query itself. Any other statement takes effect,
// unplanned, before Query returns (run).
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
	// stream ends. It is named after the parsed query's one-line text,
	// or after the plan's shape key when the text was not parsed.
	ctx, root := obs.StartSpan(ctx, "query", "")
	s.count("session.queries")

	removals := s.views.Removals()
	var q *xquery.Query
	pl := s.remembered(src, &cfg)
	hit := pl != nil
	if hit {
		root.Rename(pl.key)
	} else {
		_, psp := obs.StartSpan(ctx, "parse", "")
		st, err := badQuery(xquery.ParseStatement(src))
		if err != nil {
			psp.Fail(err)
			psp.End()
			root.Fail(err)
			root.End()
			return nil, err
		}
		psp.End()
		if root != nil {
			root.Rename(st.String())
		}
		if st.Kind != "query" {
			rows, err := s.run(&st)
			root.Fail(err)
			root.End()
			return rows, err
		}
		q = st.Query
	}

	_, plsp := obs.StartSpan(ctx, "plan", "")
	if q != nil {
		var err error
		if pl, hit, err = s.plan(q, src, &cfg); err != nil {
			plsp.Fail(err)
			plsp.End()
			root.Fail(err)
			root.End()
			return nil, err
		}
	}
	if !cfg.NoOptimize {
		if hit {
			plsp.Set("cache", "hit")
		} else {
			plsp.Set("cache", "miss")
		}
	}
	plsp.End()

	if s.sink != nil && !cfg.NoTraffic {
		s.sink.ObserveQuery(s.at, pl.key, pl.docs)
	}
	rows, err := s.rowsFor(ctx, pl, removals, &cfg)
	if err != nil {
		root.Fail(err)
		root.End()
		return nil, err
	}
	s.metrics.Histogram("session.query.first_row_ms", []float64{0.1, 1, 10, 100, 1000}).
		Observe(float64(time.Since(start)) / float64(time.Millisecond))
	return traceRows(rows, root), nil
}

// remembered returns the plan of a statement text the session has
// answered before, while that plan is current, counting the hit; nil
// sends the text down the parse path. With the optimizer off nothing
// is looked up.
func (s *Local) remembered(src string, cfg *Config) *cachedPlan {
	if cfg.NoOptimize {
		return nil
	}
	gen := s.views.Generation()
	s.mu.Lock()
	var cp *cachedPlan
	if elem, ok := s.texts[src]; ok && elem.Value.(*cachedPlan).gen == gen {
		cp = elem.Value.(*cachedPlan)
		s.order.MoveToFront(elem)
	}
	s.mu.Unlock()
	if cp != nil {
		s.count("session.plan_cache.hits")
	}
	return cp
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
	rows.pull = func() (core.Row, error) {
		row, err := pull()
		switch {
		case err != nil:
			root.Fail(err)
			finishSpan(rows, root)
		case row.IsZero():
			finishSpan(rows, root)
		default:
			root.AddRows(1)
		}
		return row, err
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

// rowsFor opens the result stream for a plan under the call's context
// rules (timeout, consistent views, snapshot isolation). removals is
// the view manager's removal count read before the plan was chosen.
func (s *Local) rowsFor(ctx context.Context, pl *cachedPlan, removals uint64, cfg *Config) (*Rows, error) {
	expr := pl.expr
	guard := s.viewGuard(pl.views, removals)
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
		for _, name := range pl.views {
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

// movedOr attributes a failure to a removed copy of a view the plan
// reads, when the guard saw one: the typed error tells the caller to
// simply re-run, instead of surfacing a transient resolution error from
// a copy that no longer exists.
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
	rows.pull = func() (core.Row, error) {
		row, err := pull()
		if err != nil || row.IsZero() {
			h.Release()
		}
		return row, err
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
	first, err := cur.NextRow()
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
	delivered := first.IsZero()
	if delivered {
		release() // empty result: nothing left to bound
	}
	pull := func() (core.Row, error) {
		if err := guard(); err != nil {
			release()
			return core.Row{}, err
		}
		if !delivered {
			delivered = true
			return first, nil
		}
		row, err := cur.NextRow()
		if err != nil {
			err = movedOr(guard, err)
		}
		if err != nil || row.IsZero() {
			release()
		}
		return row, err
	}
	rows := NewCursorRows(pull, func() error {
		err := cur.Close()
		release()
		return err
	})
	rows.vtFn = cur.VT
	return rows, nil
}

// viewGuard builds the mid-stream placement check of a plan reading
// the views names, from the view manager's removal count read before
// the plan was chosen. A pull costs one atomic load while no copy of
// any view is removed. Once the count moves, the stream fails with
// ErrViewMoved if a copy of one of its views was removed — migrated
// away, dropped or evicted, even if a copy has since come back to the
// same peer — since the cursor may be reading exactly that copy.
// Additions, and removals of other views' copies, keep the stream
// running.
func (s *Local) viewGuard(names []string, removals uint64) func() error {
	if len(names) == 0 {
		return func() error { return nil }
	}
	seen := removals // declared here, so a plan without views allocates nothing
	return func() error {
		if s.views.Removals() == seen {
			return nil
		}
		name, now := s.views.RemovedSince(seen, names)
		if name != "" {
			return fmt.Errorf("%w: a copy of view %q was removed", ErrViewMoved, name)
		}
		seen = now // other views' copies only: stop checking until the next removal
		return nil
	}
}

// Exec implements Session on top of Query.
func (s *Local) Exec(ctx context.Context, src string, opts ...Option) (int, error) {
	return Exec(ctx, s, src, opts...)
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
// now, and its text remembered, so each Stmt.Query is a Query that
// finds the cached plan without a parse (re-planning only if the view
// catalog changed in between).
func (s *Local) Prepare(ctx context.Context, src string) (*Stmt, error) {
	if err := s.alive(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	q, err := badQuery(xquery.Parse(src))
	if err != nil {
		return nil, err
	}
	// Plan eagerly so that syntax and planning errors surface at
	// Prepare time, where they belong.
	if _, _, err := s.plan(q, src, &Config{}); err != nil {
		return nil, err
	}
	return NewStmt(src, func(ctx context.Context, opts ...Option) (*Rows, error) {
		return s.Query(ctx, src, opts...)
	}), nil
}

// plan resolves the expression to evaluate, with the views it reads:
// the naive plan when the optimizer is off, else a cached or freshly
// optimized plan keyed by the normalized query shape and the
// view-catalog generation, which text (the statement's source) then
// names for Local.remembered. The second return reports whether the
// plan came from the cache; the caller only reads the plan. An
// optimizer failure while the view catalog changed underneath the
// search (a placement migrating away mid-estimate) is retried once
// against the new catalog before it surfaces.
func (s *Local) plan(q *xquery.Query, text string, cfg *Config) (*cachedPlan, bool, error) {
	for attempt := 0; ; attempt++ {
		gen := s.views.Generation()
		pl, hit, err := s.planOnce(q, text, cfg)
		if err == nil || attempt == 1 || s.views.Generation() == gen {
			return pl, hit, err
		}
	}
}

func (s *Local) planOnce(q *xquery.Query, text string, cfg *Config) (*cachedPlan, bool, error) {
	naive := &core.Query{Q: q, At: s.at}
	key := view.QueryKey(q)
	if cfg.NoOptimize {
		return newPlan(key, naive, 0), false, nil
	}
	gen := s.views.Generation()

	s.mu.Lock()
	if elem, ok := s.plans[key]; ok {
		cp := elem.Value.(*cachedPlan)
		if cp.gen != gen {
			s.drop(elem)
			s.count("session.plan_cache.invalidations")
		} else {
			s.order.MoveToFront(elem)
			s.name(elem, text)
			s.mu.Unlock()
			s.count("session.plan_cache.hits")
			return cp, true, nil
		}
	}
	s.mu.Unlock()
	s.count("session.plan_cache.misses")

	plan, _, err := opt.Optimize(s.sys, s.at, naive, opt.Options{ExtraRules: []rewrite.Rule{s.views.Rule()}})
	if err != nil {
		return nil, false, err
	}
	cp := newPlan(key, plan.Expr, gen)
	s.mu.Lock()
	s.storePlan(cp, text)
	s.mu.Unlock()
	return cp, false, nil
}

// newPlan makes a plan-cache entry, walking the plan once for the
// documents it reads — the expression tree and the document references
// of its embedded queries — and the views among them.
func newPlan(key string, expr core.Expr, gen uint64) *cachedPlan {
	cp := &cachedPlan{key: key, expr: expr, gen: gen}
	note := func(doc string) {
		if slices.Contains(cp.docs, doc) {
			return
		}
		cp.docs = append(cp.docs, doc)
		if name, ok := strings.CutPrefix(doc, view.DocPrefix); ok {
			cp.views = append(cp.views, name)
		}
	}
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
	walk(expr)
	return cp
}

// storePlan inserts (or refreshes) a cache entry as most-recently-used,
// named by text, and evicts the least recently used entries beyond the
// cap. Caller holds s.mu.
func (s *Local) storePlan(cp *cachedPlan, text string) {
	elem, ok := s.plans[cp.key]
	if ok {
		// A concurrent miss of the same shape stored first: take over
		// its text, so that dropping the entry forgets that text too.
		cp.text = elem.Value.(*cachedPlan).text
		elem.Value = cp
		s.order.MoveToFront(elem)
	} else {
		elem = s.order.PushFront(cp)
		s.plans[cp.key] = elem
	}
	s.name(elem, text)
	for s.order.Len() > s.planCap {
		s.drop(s.order.Back())
		s.count("session.plan_cache.evictions")
	}
}

// name makes text the one statement text that reaches a cache entry,
// forgetting the text that reached it before. Caller holds s.mu.
func (s *Local) name(elem *list.Element, text string) {
	cp := elem.Value.(*cachedPlan)
	if cp.text != text {
		delete(s.texts, cp.text)
		cp.text = text
		s.texts[text] = elem
	}
}

// drop removes a cache entry and the text that reached it. Caller
// holds s.mu.
func (s *Local) drop(elem *list.Element) {
	cp := s.order.Remove(elem).(*cachedPlan)
	delete(s.plans, cp.key)
	delete(s.texts, cp.text)
}

// badQuery wraps a parse failure in ErrBadQuery.
func badQuery[T any](v T, err error) (T, error) {
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return v, err
}
