package axml

import (
	"time"

	"axml/internal/session"
	"axml/internal/wire"
)

// The unified session API: one context-aware query pipeline over both
// backends. sys.Session(at) opens a session evaluating at a local
// peer; Dial(addr) opens one against a remote axmlpeer — the same
// interface, options and error kinds either way.
//
//	sess, _ := sys.Session("client")
//	rows, err := sess.Query(ctx, `for $i in doc("catalog")/item
//	                              where $i/price < 100 return $i/name`)
//	for rows.Next() { fmt.Println(SerializeXML(rows.Node())) }
//
// Each Query parses, optimizes (view-aware) and evaluates. Plans are
// cached per session: a text seen before runs its plan without a parse,
// a new text is parsed and keyed by its normalized shape, and
// DefineView/DropView invalidate them. Prepare plans one statement once.
type (
	// Session is the unified query interface (Query/Exec/Prepare).
	Session = session.Session
	// Rows streams a query's result forest (Next/Scan, or All() for
	// range-over-func iteration).
	Rows = session.Rows
	// Stmt is a prepared statement.
	Stmt = session.Stmt
	// QueryOption configures one Query/Exec call.
	QueryOption = session.Option
	// DialOption configures a wire connection (timeouts).
	DialOption = wire.DialOption
)

// Typed failure kinds: identical for local and wire sessions, so
// callers branch with errors.Is without knowing the backend.
var (
	// ErrCanceled: the context expired or was canceled before the
	// evaluation completed its (possibly remote) work.
	ErrCanceled = session.ErrCanceled
	// ErrNoSuchDoc: a referenced document is hosted by no peer.
	ErrNoSuchDoc = session.ErrNoSuchDoc
	// ErrNoSuchService: the provider does not define the service.
	ErrNoSuchService = session.ErrNoSuchService
	// ErrPeerDown: the target peer is unreachable (netsim SetDown, or
	// a dead TCP endpoint).
	ErrPeerDown = session.ErrPeerDown
	// ErrBadQuery: the source text does not parse.
	ErrBadQuery = session.ErrBadQuery
	// ErrViewMoved: a streaming query's plan read a materialized view
	// whose placement migrated or was dropped mid-stream (adaptive
	// placement); re-running the query re-plans against the new
	// placement.
	ErrViewMoved = session.ErrViewMoved
)

// Query/Exec options.

// WithNoOptimize evaluates the query as written — no rewrite search,
// no view rewriting, no plan cache.
func WithNoOptimize() QueryOption { return session.WithNoOptimize() }

// WithConsistentView refreshes every materialized view the chosen plan
// reads before evaluating, so the answer reflects the current base
// data. Wire servers apply this by default.
func WithConsistentView() QueryOption { return session.WithConsistentView() }

// WithSnapshotIsolation pins the whole statement — including a
// streamed Rows' full lifetime — to one epoch of the evaluating
// peer's document store: rows reflect exactly the state at the moment
// the call started, no matter what commits land while the client
// drains the stream. The pin is dropped when the stream is exhausted,
// closed, or fails. Works over both backends; a wire session frames
// it as the +snapshot flag.
func WithSnapshotIsolation() QueryOption { return session.WithSnapshotIsolation() }

// WithTimeout bounds the call by a deadline relative to its start —
// shorthand for passing a context.WithTimeout context.
func WithTimeout(d time.Duration) QueryOption { return session.WithTimeout(d) }

// WithTraceID asks a wire session to trace this query server-side
// under the given ID, retrievable afterwards over the TRACE verb.
// Local sessions trace through a context instead — see NewTrace and
// WithTrace.
func WithTraceID(id string) QueryOption { return session.WithTraceID(id) }

// Dial options.

// WithDialTimeout bounds TCP connection establishment (default 10s).
func WithDialTimeout(d time.Duration) DialOption { return wire.WithDialTimeout(d) }

// WithIOTimeout bounds each wire round trip when the call's context
// carries no earlier deadline.
func WithIOTimeout(d time.Duration) DialOption { return wire.WithIOTimeout(d) }

// Session opens a session evaluating at peer at: the single
// client-facing entrypoint over this system. Its plan-cache counters
// (session.plan_cache.*) land in Metrics. When
// adaptive placement is enabled, the session's query traffic feeds the
// placement observer.
func (s *System) Session(at PeerID) (Session, error) {
	return s.LocalSession(at)
}

// MustSession is Session that panics on error (setup code).
func (s *System) MustSession(at PeerID) Session {
	sess, err := s.Session(at)
	if err != nil {
		panic(err)
	}
	return sess
}

// LocalSession is Session returning the concrete local type.
func (s *System) LocalSession(at PeerID) (*session.Local, error) {
	opts := []session.LocalOption{session.WithMetrics(s.metrics)}
	if s.placement != nil {
		opts = append(opts, session.WithTrafficSink(s.placement.Observer()))
	}
	return session.NewLocal(s.System, s.views, at, opts...)
}

// Dial connects to a remote axmlpeer and returns the same Session
// interface a local system yields: Query streams rows off the wire,
// Exec runs update statements, and Prepare checks a query and runs it
// through Query, the server's plan cache answering its repeats.
func Dial(addr string, opts ...DialOption) (Session, error) {
	c, err := wire.Dial(addr, opts...)
	if err != nil {
		return nil, err
	}
	return c, nil
}
