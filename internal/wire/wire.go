// Package wire implements a small line-oriented TCP protocol exposing
// one peer's documents and declarative services to remote clients —
// the stand-in for the WSDL/SOAP endpoint of the original AXML system
// (paper §2.1: services "correspond to (simplified) WSDL
// request-response operations").
//
// A request is one line, a verb and its arguments:
//
//	QUERYX [+flags] <xquery>          → <x:row>…</x:row>… then <x:end n="K"/>
//	EXEC [+flags] <statement>         → <x:ok n="K"/>
//	PREPARE <xquery>                  → <x:ok/>
//	CALL <service> [<param-forest>]   → <x:forest>…</x:forest>
//	INSTALL <docname> <xml>           → <x:ok/>
//	DEFVIEW <name>[@<peer>] <xquery>  → <x:ok/>
//	LIST                              → <x:info>…</x:info>
//	PLACEMENTS                        → <x:placements>…</x:placements>
//	STATS                             → <x:stats>…</x:stats>
//	TRACE <trace-id>                  → <x:trace>…</x:trace>
//	QUIT                              (closes the connection)
//
// Federation control verbs, served when Server.Coordinator or
// Server.Member is set (see control.go and internal/cluster):
//
//	HELLO <x:member id=… addr=…>…</x:member>   → <x:members>…</x:members>
//	BYE <member-id>                            → <x:ok/>
//	DEMAND                                     → <x:demand>…</x:demand>
//	MIGRATE <view> <target-id> <target-addr>   → <x:ok/>
//	REPLICATE <view> <target-id> <target-addr> → <x:ok/>
//	DROPVIEW <view>                            → <x:ok/>
//	ACCEPTVIEW <name> <x:ship query=… origin=…><tree/></x:ship> → <x:ok n=…/>
//	STEP                                       → <x:decisions>…</x:decisions>
//
// Any verb may instead answer <x:error code="kind">message</x:error>.
// The code — canceled, no-such-doc, no-such-service, peer-down,
// bad-query, view-moved, internal — maps back onto the typed sentinels
// local evaluation returns (session.ErrCanceled &co), so callers branch
// on failure kind without knowing which backend they are talking to.
//
// QUERYX and EXEC take one optional +flag+flag… token before the
// source text; an unknown flag is a bad-query error:
//
//	+noopt        evaluate as written: no rewrite search, no plan cache
//	+nocache      re-plan even when a cached plan exists
//	+snapshot     pin the statement to one epoch of the served peer's store
//	+fwd          forwarded by another member: not counted as demand here,
//	              never forwarded again
//	+trace=<id>   record a span tree, fetched back with TRACE <id>
//
// QUERYX is the one read verb and EXEC the one write verb (`delete
// <path>`, `replace <path> with <xml>`, or a query whose rows are
// counted and discarded). Both run through the server's shared session
// (internal/session): parse → view-aware optimize → plan cache (keyed
// by normalized query shape, invalidated when DEFVIEW changes the
// catalog) → refresh the views the plan reads → pull-based cursor.
// PREPARE warms that plan cache. QUERYX writes each row into the
// connection buffer as the cursor yields it and flushes the first row
// alone, so it reaches the client while evaluation continues; the rest
// leave whenever the buffer fills. A failure after the first row ends
// the stream with an <x:error> line in place of <x:end>, and a client
// that hangs up mid-stream is seen at the next buffer write, which
// abandons the cursor — evaluation stops within one buffer of rows.
//
// Every reply and every tree a request carries is one line: CR and LF
// inside text and attribute values travel as &#13; and &#10;
// (xmltree.WriteLine), which the receiving parser decodes. Updates emit
// typed change notifications, so views over the touched documents
// retract or re-derive the affected rows on their next refresh.
//
// The session needs the core.System the served peer lives in
// (Server.Views). A server without one — a coordinator — answers
// QUERYX, EXEC and PREPARE with one error and serves everything else.
//
// STATS returns the server's metrics-registry snapshot; PLACEMENTS the
// view-placement map plus, with a controller attached
// (Server.Placements) or at a coordinator, the recent decisions.
package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"axml/internal/core"
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/placement"
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/xmltree"
)

// maxLine bounds request/reply sizes (16 MiB).
const maxLine = 16 << 20

// Server serves one peer over a listener. Views is the view manager of
// the core.System the peer belongs to; the data verbs (QUERYX, EXEC,
// PREPARE) and DEFVIEW need it, and a server without one — a
// coordinator — serves only the remaining verbs.
type Server struct {
	Peer  *peer.Peer
	Views *view.Manager
	// Placements optionally attaches an adaptive-placement controller:
	// PLACEMENTS then includes its decision log, and deployments
	// (cmd/axmlpeer -adaptive) step it on a ticker.
	Placements *placement.Controller
	// SessionOptions configure the server's shared query session (for
	// example session.WithTrafficSink to feed the placement observer).
	SessionOptions []session.LocalOption
	// Metrics optionally supplies the unified metrics registry the
	// STATS verb serves. When nil, the server creates one on first use;
	// either way the registry carries the wire streaming counters (as
	// gauges), the shared session's plan-cache counters, the network
	// totals, and the ring of recent query traces (+trace=<id> on
	// QUERYX/EXEC; fetched back with TRACE <id>).
	Metrics *obs.Registry
	// Coordinator and Member optionally attach the federation control
	// plane, one role each: HELLO/BYE/STEP are answered by Coordinator
	// (a cluster.Coordinator on the coordinator process),
	// DEMAND/MIGRATE/REPLICATE/DROPVIEW/ACCEPTVIEW by Member (a
	// cluster.Member on peers). A nil role rejects its verbs.
	Coordinator CoordinatorControl
	Member      MemberControl
	// Forward optionally routes queries over documents this deployment
	// does not host to the member that does (cluster.Member implements
	// it). Only QUERYX forwards, and only when the request did not
	// itself arrive forwarded (+fwd) — one hop, no loops.
	Forward Forwarder

	sessOnce sync.Once
	sess     *session.Local
	sessErr  error

	metricsOnce sync.Once

	// Streaming counters, read through the wire.* gauges of the
	// registry: x:row lines written into connection buffers (the first
	// of a stream flushed alone, the rest as the buffer fills), QUERYX
	// requests accepted, and streams cut short because the client went
	// away (the cursor was closed with rows still unevaluated).
	rowsStreamed   atomic.Uint64
	streamsStarted atomic.Uint64
	streamsAborted atomic.Uint64

	// Shutdown support: live connections, the draining flag that stops
	// new work, and the count of in-flight dispatches still writing.
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	active   atomic.Int64
}

// metrics returns the server's registry, creating and wiring it on
// first use: streaming counters and network totals become gauges (the
// atomics/netsim stay the owners; the registry samples them), and the
// session pipeline mirrors its plan-cache counters in (see
// Server.session). Gauge registration is idempotent, so sharing one
// registry across servers of one deployment is safe.
func (s *Server) metrics() *obs.Registry {
	s.metricsOnce.Do(func() {
		if s.Metrics == nil {
			s.Metrics = obs.NewRegistry()
		}
		s.Metrics.Gauge("wire.streams_started", func() int64 { return int64(s.streamsStarted.Load()) })
		s.Metrics.Gauge("wire.rows_streamed", func() int64 { return int64(s.rowsStreamed.Load()) })
		s.Metrics.Gauge("wire.streams_aborted", func() int64 { return int64(s.streamsAborted.Load()) })
		if s.Views != nil {
			s.Views.System().RegisterGauges(s.Metrics)
		}
	})
	return s.Metrics
}

// MetricsRegistry returns the server's metrics registry, creating and
// wiring it on first use — the registry behind the STATS verb. Hand it
// to cooperating components (placement.Config.Metrics, an HTTP
// exporter) so the deployment reports through one registry.
func (s *Server) MetricsRegistry() *obs.Registry { return s.metrics() }

// errNoSystem is what the data verbs answer on a server that has no
// core.System behind it (Views unset).
var errNoSystem = errors.New("wire: this server has no system behind its peer and serves no queries or updates")

// session returns the server's shared query session (one plan cache
// across all connections) — the only way a data verb is served, and
// the only place that decides a server cannot serve them. A failure to
// build the session is a misconfiguration; it is remembered and every
// data verb reports it.
func (s *Server) session() (*session.Local, error) {
	if s.Views == nil {
		return nil, errNoSystem
	}
	s.sessOnce.Do(func() {
		// The shared session always feeds the server's registry, so a
		// STATS snapshot's session.plan_cache.* counters are exactly the
		// session's Stats() values.
		opts := append([]session.LocalOption{session.WithMetrics(s.metrics())}, s.SessionOptions...)
		s.sess, s.sessErr = session.NewLocal(s.Views.System(), s.Views, s.Peer.ID, opts...)
	})
	return s.sess, s.sessErr
}

// Serve accepts connections until the listener is closed.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	if !s.track(conn) {
		conn.Close()
		return
	}
	defer s.untrack(conn)
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "QUIT") {
			return
		}
		// Count the dispatch (including its flush) as in-flight so
		// Shutdown can drain it; the draining check happens after the
		// increment, so a request either runs fully accounted or not at
		// all.
		s.active.Add(1)
		if s.draining.Load() {
			s.active.Add(-1)
			return
		}
		s.dispatch(line, w)
		err := w.Flush()
		s.active.Add(-1)
		if err != nil {
			return
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		rejectOversize(conn, w)
	}
}

// rejectOversize answers a request line longer than maxLine before the
// connection closes (the scanner cannot resume after ErrTooLong). The
// client is still writing that line, and closing under it would fail
// its write before it ever reads a reply, so the rest of the line is
// swallowed first, for at most a second.
func rejectOversize(conn net.Conn, w *bufio.Writer) {
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	rest := bufio.NewReader(conn)
	for {
		if _, err := rest.ReadSlice('\n'); !errors.Is(err, bufio.ErrBufferFull) {
			break
		}
	}
	fmt.Fprintln(w, errReply(fmt.Errorf("%w: request line exceeds the %d-byte limit", session.ErrBadQuery, maxLine)))
	_ = w.Flush() // the connection closes either way
}

// track registers a live connection; it refuses once draining started.
func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.draining.Load() {
		return false
	}
	if s.conns == nil {
		s.conns = map[net.Conn]struct{}{}
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// Shutdown drains the server: new connections and new requests are
// refused, requests already dispatching — including a QUERYX stream
// mid-row — run to completion, then every connection is closed. When
// the context expires first, the remaining connections are closed
// anyway (cutting their streams) and the context's error is returned.
// Close the listener before calling Shutdown, or Serve keeps accepting
// connections that handle() immediately drops.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for s.active.Load() != 0 {
		select {
		case <-ctx.Done():
			s.closeConns()
			return ctx.Err()
		case <-tick.C:
		}
	}
	s.closeConns()
	return nil
}

// closeConns closes every tracked connection, unblocking handlers idle
// in their read loop. The close happens outside connMu so a slow
// close cannot stall track/untrack.
func (s *Server) closeConns() {
	s.connMu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.connMu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// errCode classifies an error into the protocol's code vocabulary.
func errCode(err error) string {
	switch {
	case errors.Is(err, core.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	case errors.Is(err, core.ErrNoSuchDoc):
		return "no-such-doc"
	case errors.Is(err, core.ErrNoSuchService):
		return "no-such-service"
	case errors.Is(err, core.ErrPeerDown):
		return "peer-down"
	case errors.Is(err, session.ErrBadQuery):
		return "bad-query"
	case errors.Is(err, session.ErrViewMoved):
		return "view-moved"
	default:
		return "internal"
	}
}

// sentinelFor is the client-side inverse of errCode.
func sentinelFor(code string) error {
	switch code {
	case "canceled":
		return session.ErrCanceled
	case "no-such-doc":
		return session.ErrNoSuchDoc
	case "no-such-service":
		return session.ErrNoSuchService
	case "peer-down":
		return session.ErrPeerDown
	case "bad-query":
		return session.ErrBadQuery
	case "view-moved":
		return session.ErrViewMoved
	default:
		return nil
	}
}

func errReply(err error) string {
	e := xmltree.E("x:error", xmltree.A("code", errCode(err)), xmltree.T(err.Error()))
	return xmltree.SerializeLine(e)
}

// dispatch executes one request line. Most commands produce a single
// reply line; QUERYX streams its reply.
func (s *Server) dispatch(line string, w *bufio.Writer) {
	cmd, rest, _ := strings.Cut(line, " ")
	if strings.EqualFold(cmd, "QUERYX") {
		s.doQueryStream(rest, w)
		return
	}
	var reply string
	switch strings.ToUpper(cmd) {
	case "EXEC":
		reply = s.doExec(rest)
	case "PREPARE":
		reply = s.doPrepare(rest)
	case "CALL":
		reply = s.doCall(rest)
	case "INSTALL":
		reply = s.doInstall(rest)
	case "DEFVIEW":
		reply = s.doDefView(rest)
	case "LIST":
		reply = s.doList()
	case "PLACEMENTS":
		reply = s.doPlacements()
	case "STATS":
		reply = s.doStats()
	case "TRACE":
		reply = s.doTrace(rest)
	case "HELLO":
		reply = s.doHello(rest)
	case "BYE":
		reply = s.doBye(rest)
	case "DEMAND":
		reply = s.doDemand()
	case "MIGRATE":
		reply = s.doMigrate(rest, false)
	case "REPLICATE":
		reply = s.doMigrate(rest, true)
	case "DROPVIEW":
		reply = s.doDropView(rest)
	case "ACCEPTVIEW":
		reply = s.doAcceptView(rest)
	case "STEP":
		reply = s.doStep()
	default:
		reply = errReply(fmt.Errorf("unknown command %q", cmd))
	}
	fmt.Fprintln(w, reply)
}

// wireFlags is the flag vocabulary of QUERYX/EXEC: the session.Config
// switches the wire carries, each with the option that sets it. Both
// directions of the codec read this one table; the valued +trace=<id>
// is handled beside it.
var wireFlags = []struct {
	name string
	set  func(*session.Config) bool
	opt  func() session.Option
}{
	{"noopt", func(c *session.Config) bool { return c.NoOptimize }, session.WithNoOptimize},
	{"nocache", func(c *session.Config) bool { return c.NoPlanCache }, session.WithNoPlanCache},
	{"snapshot", func(c *session.Config) bool { return c.SnapshotIsolation }, session.WithSnapshotIsolation},
	// Forwarded from another member: kept out of this deployment's
	// demand counters (the forwarding member already recorded it where
	// the consumer sits) and not forwarded again.
	{"fwd", func(c *session.Config) bool { return c.NoTraffic }, session.WithNoTraffic},
}

// encodeFlags renders the wire-carried part of a call's options as the
// "+flag+flag " token that precedes the source text of a QUERYX/EXEC
// request — empty when no flag is set.
func encodeFlags(cfg session.Config) string {
	var sb strings.Builder
	for _, f := range wireFlags {
		if f.set(&cfg) {
			sb.WriteString("+" + f.name)
		}
	}
	if cfg.TraceID != "" {
		sb.WriteString("+trace=" + cfg.TraceID)
	}
	if sb.Len() > 0 {
		sb.WriteByte(' ')
	}
	return sb.String()
}

// parseFlags is the inverse of encodeFlags: it strips a leading flag
// token off a QUERYX/EXEC request and returns the options it stands
// for. A flag outside the vocabulary is an error — silently dropping,
// say, a misspelt +snapshot would run the statement without the
// isolation its sender asked for.
func parseFlags(rest string) (string, []session.Option, error) {
	if !strings.HasPrefix(rest, "+") {
		return rest, nil, nil
	}
	token, src, _ := strings.Cut(rest, " ")
	var opts []session.Option
	for _, flag := range strings.Split(token[1:], "+") {
		opt, ok := flagOption(flag)
		if !ok {
			return "", nil, fmt.Errorf("%w: unknown request flag %q", session.ErrBadQuery, "+"+flag)
		}
		opts = append(opts, opt)
	}
	return src, opts, nil
}

// flagOption resolves one flag of a request's flag token; an empty
// +trace= is as unknown as a name outside the vocabulary.
func flagOption(flag string) (session.Option, bool) {
	if id, ok := strings.CutPrefix(flag, "trace="); ok {
		return session.WithTraceID(id), id != ""
	}
	for _, f := range wireFlags {
		if f.name == flag {
			return f.opt(), true
		}
	}
	return nil, false
}

// traceContext arms a context for a request that asked to be traced
// (+trace=<id>): the returned done func records the finished trace in
// the registry's ring, where TRACE <id> finds it.
func (s *Server) traceContext(ctx context.Context, cfg session.Config) (context.Context, func()) {
	if cfg.TraceID == "" {
		return ctx, func() {}
	}
	tr := obs.NewTrace(cfg.TraceID)
	reg := s.metrics()
	return obs.WithTrace(ctx, tr), func() { reg.RecordTrace(tr) }
}

// doQueryStream answers QUERYX: one x:row line per result tree as the
// session cursor yields it, then x:end. Each row is serialized straight
// from the cursor's tree into the connection buffer. The first row is
// flushed alone, so it reaches the client while evaluation continues;
// the rest leave whenever the buffer fills, and handle flushes what is
// left. Errors before the first row (planning, setup) produce a single
// x:error line; an evaluation failure mid-stream terminates the row
// sequence with an x:error line in place of x:end. A failed write
// means the client hung up: the cursor is closed — abandoning the
// unevaluated remainder — and the stream is counted as aborted.
func (s *Server) doQueryStream(rest string, w *bufio.Writer) {
	src, opts, err := parseFlags(rest)
	if err != nil {
		fmt.Fprintln(w, errReply(err))
		return
	}
	cfg := session.BuildConfig(opts)
	ctx, traceDone := s.traceContext(context.Background(), cfg)
	defer traceDone()
	s.streamsStarted.Add(1)
	var rows *session.Rows
	sess, err := s.session()
	if err == nil {
		rows, err = sess.Query(ctx, src, append(opts, session.WithConsistentView())...)
	}
	if err != nil {
		// A query over a document another federation member hosts is
		// forwarded there — one hop only: a request that itself arrived
		// forwarded (+fwd → cfg.NoTraffic) fails as it would have
		// without a forwarder, so a stale route cannot loop.
		if s.Forward != nil && !cfg.NoTraffic && errors.Is(err, session.ErrNoSuchDoc) {
			if frows, ok, ferr := s.Forward.ForwardQuery(ctx, src); ok {
				if ferr != nil {
					fmt.Fprintln(w, errReply(ferr))
					return
				}
				rows = frows
				err = nil
			}
		}
		if err != nil {
			fmt.Fprintln(w, errReply(err))
			return
		}
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		if n == 1 {
			// Flushing the first row woke the reader. On a host with few
			// CPUs it can be queued behind this goroutine, which would
			// keep the CPU until the buffer fills; a reply that goes on
			// lets it run first.
			runtime.Gosched()
		}
		w.WriteString("<x:row>")
		xmltree.WriteLine(w, rows.Node())
		// The writer's errors are sticky: the last write of a row
		// reports a failure anywhere in it.
		_, werr := w.WriteString("</x:row>\n")
		if werr == nil && n == 0 {
			werr = w.Flush()
		}
		if werr != nil {
			s.streamsAborted.Add(1)
			return
		}
		s.rowsStreamed.Add(1)
		n++
	}
	if err := rows.Err(); err != nil {
		fmt.Fprintln(w, errReply(err))
		return
	}
	fmt.Fprintln(w, xmltree.SerializeLine(xmltree.E("x:end", xmltree.A("n", fmt.Sprint(n)))))
}

// doExec runs an update statement (or a query whose results are
// discarded) and reports the touched-node count.
func (s *Server) doExec(rest string) string {
	src, opts, err := parseFlags(rest)
	if err != nil {
		return errReply(err)
	}
	sess, err := s.session()
	if err != nil {
		return errReply(err)
	}
	ctx, traceDone := s.traceContext(context.Background(), session.BuildConfig(opts))
	defer traceDone()
	n, err := sess.Exec(ctx, src, opts...)
	if err != nil {
		return errReply(err)
	}
	return okCount(n)
}

// doPrepare validates a query and warms the server-side plan cache, so
// subsequent QUERYX of the same shape skip the optimizer search.
func (s *Server) doPrepare(src string) string {
	sess, err := s.session()
	if err != nil {
		return errReply(err)
	}
	stmt, err := sess.Prepare(context.Background(), src)
	if err != nil {
		return errReply(err)
	}
	_ = stmt.Close()
	return "<x:ok/>"
}

func (s *Server) doDefView(rest string) string {
	spec, src, ok := strings.Cut(rest, " ")
	if !ok || spec == "" {
		return errReply(fmt.Errorf("DEFVIEW requires a name and a query"))
	}
	if s.Views == nil {
		return errReply(fmt.Errorf("this peer does not serve views"))
	}
	name, placement, placed := strings.Cut(spec, "@")
	if placed && placement != string(s.Peer.ID) {
		return errReply(fmt.Errorf("placement %q is not the served peer %q", placement, s.Peer.ID))
	}
	if err := s.Views.Define(name, src, s.Peer.ID); err != nil {
		return errReply(err)
	}
	return "<x:ok/>"
}

func (s *Server) doCall(rest string) string {
	name, paramXML, _ := strings.Cut(rest, " ")
	if name == "" {
		return errReply(fmt.Errorf("CALL requires a service name"))
	}
	svc, ok := s.Peer.Service(name)
	if !ok {
		return errReply(fmt.Errorf("%w: %q", core.ErrNoSuchService, name))
	}
	if !svc.Declarative() {
		return errReply(fmt.Errorf("service %q is not declarative", name))
	}
	var args [][]*xmltree.Node
	if strings.TrimSpace(paramXML) != "" {
		trees, err := xmltree.ParseFragment(paramXML)
		if err != nil {
			return errReply(err)
		}
		for _, t := range trees {
			args = append(args, []*xmltree.Node{t})
		}
	}
	if len(args) != svc.Body.Arity() {
		return errReply(fmt.Errorf("service %q takes %d parameter(s), got %d",
			name, svc.Body.Arity(), len(args)))
	}
	out, err := s.Peer.RunQuery(svc.Body, args...)
	if err != nil {
		return errReply(err)
	}
	return forestReply(out)
}

func (s *Server) doInstall(rest string) string {
	name, xml, ok := strings.Cut(rest, " ")
	if !ok || name == "" {
		return errReply(fmt.Errorf("INSTALL requires a name and a document"))
	}
	root, err := xmltree.Parse(xml)
	if err != nil {
		return errReply(err)
	}
	if err := s.Peer.InstallDocument(name, root); err != nil {
		return errReply(err)
	}
	return "<x:ok/>"
}

func okCount(n int) string {
	return xmltree.SerializeLine(xmltree.E("x:ok", xmltree.A("n", fmt.Sprint(n))))
}

func (s *Server) doList() string {
	info := xmltree.E("x:info")
	for _, d := range s.Peer.DocumentNames() {
		info.AppendChild(xmltree.E("doc", xmltree.A("name", d)))
	}
	for _, svc := range s.Peer.ServiceNames() {
		info.AppendChild(xmltree.E("service", xmltree.A("name", svc)))
	}
	if s.Views != nil {
		for _, v := range s.Views.Views() {
			info.AppendChild(xmltree.E("view",
				xmltree.A("name", v.Name),
				xmltree.A("mode", v.Mode),
				xmltree.A("query", v.Query)))
		}
	}
	return xmltree.SerializeLine(info)
}

func placementToXML(pi view.PlacementInfo) *xmltree.Node {
	return xmltree.E("placement",
		xmltree.A("view", pi.View),
		xmltree.A("at", string(pi.At)),
		xmltree.A("base", string(pi.BaseAt)),
		xmltree.A("mode", pi.Mode),
		xmltree.A("bytes", fmt.Sprint(pi.Bytes)),
		xmltree.A("trees", fmt.Sprint(pi.Trees)),
		xmltree.A("epoch", fmt.Sprint(pi.Epoch)),
		xmltree.A("behind", fmt.Sprint(pi.Behind)))
}

// doPlacements reports the view-placement map and, when a controller
// is attached, its recent decisions.
func (s *Server) doPlacements() string {
	if s.Views == nil && s.Coordinator == nil && s.Member == nil {
		return errReply(fmt.Errorf("placements: peer serves no views"))
	}
	root := xmltree.E("x:placements")
	if s.Views != nil {
		for _, pi := range s.Views.Placements() {
			root.AppendChild(placementToXML(pi))
		}
	}
	if s.Placements != nil {
		for _, d := range s.Placements.Decisions() {
			root.AppendChild(decisionToXML(d))
		}
	}
	// A coordinator reports the cluster-wide map it aggregated from
	// member demand exports, plus its own decision log — the `at`
	// attribute then names a member, not a netsim peer.
	if s.Coordinator != nil {
		placements, decisions := s.Coordinator.ClusterPlacements()
		for _, pi := range placements {
			root.AppendChild(placementToXML(pi))
		}
		for _, d := range decisions {
			root.AppendChild(decisionToXML(d))
		}
	}
	return xmltree.SerializeLine(root)
}

// doStats answers STATS with the registry snapshot: wire streaming
// gauges, session plan-cache counters, network totals, and whatever
// else the deployment feeds the shared registry (placement decisions,
// query latency histograms).
func (s *Server) doStats() string {
	// Touch the session first so its counters exist in the snapshot
	// even before the first query.
	_, _ = s.session()
	return xmltree.SerializeLine(obs.SnapshotToXML(s.metrics().Snapshot()))
}

// doTrace answers TRACE <id> with the span tree recorded for a
// +trace=<id> query, if it is still in the recent-traces ring.
func (s *Server) doTrace(rest string) string {
	id := strings.TrimSpace(rest)
	if id == "" {
		return errReply(fmt.Errorf("TRACE requires a trace id"))
	}
	tr := s.metrics().TraceByID(id)
	if tr == nil {
		return errReply(fmt.Errorf("trace: no trace %q (traced queries use +trace=<id>; the ring keeps the most recent)", id))
	}
	return xmltree.SerializeLine(obs.SpansToXML(tr.ID, tr.Spans()))
}

// forestReply writes a result forest as one x:forest line, each tree
// serialized where it stands.
func forestReply(out []*xmltree.Node) string {
	var sb strings.Builder
	sb.WriteString("<x:forest>")
	for _, n := range out {
		xmltree.WriteLine(&sb, n)
	}
	sb.WriteString("</x:forest>")
	return sb.String()
}

// DialOption configures a client connection.
type DialOption func(*dialConfig)

type dialConfig struct {
	dialTimeout time.Duration
	ioTimeout   time.Duration
}

// WithDialTimeout bounds the TCP connection establishment (default
// 10s; 0 disables).
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.dialTimeout = d }
}

// WithIOTimeout bounds each conn operation — the request write, the
// reply read, and each streamed row individually (the deadline re-arms
// per read, so a long healthy stream never trips it) — tightened by
// the call context's own deadline when that is earlier. A server
// flushes a stream's rows a buffer at a time after the first, so the
// allowance spans the gap between two flushes: the time the server
// takes to evaluate a buffer's worth of rows. Zero (the default)
// leaves I/O bounded only by the context.
func WithIOTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.ioTimeout = d }
}

// Client is a connection to an axmlpeer server. It implements the
// unified session interface: Query streams, Exec updates, Prepare
// pins a statement — same methods, options and error kinds as a local
// axml session. A Client serializes its calls; a streaming Rows must
// be closed (or drained) before the next request.
type Client struct {
	conn      net.Conn
	sc        *bufio.Scanner
	ioTimeout time.Duration

	// addr and dialTimeout enable a transparent one-shot reconnect:
	// when a call on a pooled connection fails with ErrPeerDown before
	// any reply row was delivered — a peer restarted under us — the
	// client redials once and replays the request, for idempotent verbs
	// only. Clients built directly over an existing conn (tests, pipes)
	// have addr == "" and never redial.
	addr        string
	dialTimeout time.Duration

	mu     sync.Mutex
	busy   bool // an exchange (round trip or open Rows) owns the conn
	closed bool
}

// Client implements the session interface — the wire backend of the
// unified API.
var _ session.Session = (*Client)(nil)

// Dial connects to a server. The default configuration bounds the TCP
// dial at 10 seconds; per-call deadlines come from each call's context
// (or WithIOTimeout as the fallback).
func Dial(addr string, opts ...DialOption) (*Client, error) {
	cfg := dialConfig{dialTimeout: 10 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	conn, err := net.DialTimeout("tcp", addr, cfg.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w: %v", addr, core.ErrPeerDown, err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	return &Client{conn: conn, sc: sc, ioTimeout: cfg.ioTimeout,
		addr: addr, dialTimeout: cfg.dialTimeout}, nil
}

// redial replaces a dead connection with a fresh dial to the original
// address. Callers must hold the busy claim (no other exchange can
// touch the conn fields). Reports whether a fresh connection is in
// place.
func (c *Client) redial() bool {
	if c.addr == "" {
		return false
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return false
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return false
	}
	old := c.conn
	c.conn, c.sc = conn, sc
	c.mu.Unlock()
	_ = old.Close()
	return true
}

// idempotentLine reports whether a request line may be transparently
// replayed after a reconnect: reads and cache warmers only. Update and
// actuation verbs (EXEC, INSTALL, MIGRATE, ACCEPTVIEW, …) may have
// taken effect server-side before the connection died, so replaying
// them could double-apply; their callers see ErrPeerDown and decide.
func idempotentLine(line string) bool {
	cmd, _, _ := strings.Cut(line, " ")
	switch strings.ToUpper(cmd) {
	case "QUERYX", "PREPARE", "LIST", "PLACEMENTS", "STATS",
		"TRACE", "DEMAND", "HELLO", "BYE":
		return true
	}
	return false
}

// Close terminates the session.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	fmt.Fprintln(c.conn, "QUIT")
	return c.conn.Close()
}

// guard arms the connection for one exchange: bump (re-)applies the
// deadline — ioTimeout from now, tightened by the context's own
// deadline — and is called before each conn operation, so per-row
// reads of a long stream each get a fresh allowance; a watcher aborts
// in-flight I/O the moment the context is canceled. The returned
// release must be called when the exchange ends; it waits for the
// watcher to exit before clearing the deadline, so a late cancellation
// can never poison the connection for the next exchange.
func (c *Client) guard(ctx context.Context) (bump, release func()) {
	bump = func() {
		if ctx.Err() != nil {
			return // keep the watcher's poisoned deadline
		}
		var dl time.Time
		if c.ioTimeout > 0 {
			dl = time.Now().Add(c.ioTimeout)
		}
		if d, ok := ctx.Deadline(); ok && (dl.IsZero() || d.Before(dl)) {
			dl = d
		}
		_ = c.conn.SetDeadline(dl) // zero time clears
		if ctx.Err() != nil {
			// The watcher may have fired between the check and the set;
			// re-poison so a canceled context never waits out a fresh
			// allowance.
			_ = c.conn.SetDeadline(time.Now().Add(-time.Second))
		}
	}
	bump()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			// Unblock any Read/Write immediately.
			_ = c.conn.SetDeadline(time.Now().Add(-time.Second))
		case <-stop:
		}
	}()
	release = func() {
		close(stop)
		<-done
		_ = c.conn.SetDeadline(time.Time{})
	}
	return bump, release
}

// ioError classifies a transport failure: context expiry (either the
// caller's or the I/O deadline) maps to ErrCanceled, everything else
// to ErrPeerDown — the remote equivalents of a local canceled
// evaluation and a netsim peer marked down.
func (c *Client) ioError(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("wire: %w: %v", session.ErrCanceled, cerr)
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return fmt.Errorf("wire: i/o timeout: %w: %v", session.ErrCanceled, err)
	}
	return fmt.Errorf("wire: connection lost: %w: %v", session.ErrPeerDown, err)
}

// send writes one request line.
func (c *Client) send(ctx context.Context, line string) error {
	if strings.ContainsAny(line, "\n\r") {
		line = strings.ReplaceAll(strings.ReplaceAll(line, "\r", " "), "\n", " ")
	}
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		return c.ioError(ctx, err)
	}
	return nil
}

// recv reads one reply line as a parsed tree. Protocol-level errors
// (x:error) are mapped onto typed sentinels via their code attribute.
func (c *Client) recv(ctx context.Context) (*xmltree.Node, error) {
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return nil, c.ioError(ctx, err)
		}
		return nil, fmt.Errorf("wire: connection closed: %w", session.ErrPeerDown)
	}
	root, err := xmltree.Parse(c.sc.Text())
	if err != nil {
		return nil, fmt.Errorf("wire: bad reply: %w", err)
	}
	if root.Label == "x:error" {
		code, _ := root.Attr("code")
		if sentinel := sentinelFor(code); sentinel != nil {
			return nil, fmt.Errorf("wire: server: %w: %s", sentinel, root.TextContent())
		}
		return nil, fmt.Errorf("wire: server: %s", root.TextContent())
	}
	return root, nil
}

// begin claims the connection for one exchange; end releases it. A
// failed begin means another call or an open Rows owns the line.
func (c *Client) begin() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return session.ErrClosed
	}
	if c.busy {
		return fmt.Errorf("wire: connection busy (concurrent call, or previous Rows not closed)")
	}
	c.busy = true
	return nil
}

func (c *Client) end() {
	c.mu.Lock()
	c.busy = false
	c.mu.Unlock()
}

// roundTrip sends one request line and parses the single reply line.
// An ErrPeerDown on an idempotent verb — the stale-pooled-socket case
// after a peer restart — is retried once over a fresh connection.
func (c *Client) roundTrip(ctx context.Context, line string) (*xmltree.Node, error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	defer c.end()
	root, err := c.exchange(ctx, line)
	if err != nil && errors.Is(err, session.ErrPeerDown) &&
		ctx.Err() == nil && idempotentLine(line) && c.redial() {
		root, err = c.exchange(ctx, line)
	}
	return root, err
}

// exchange performs one send/recv attempt. The caller holds the busy
// claim.
func (c *Client) exchange(ctx context.Context, line string) (*xmltree.Node, error) {
	bump, release := c.guard(ctx)
	defer release()
	if err := c.send(ctx, line); err != nil {
		return nil, err
	}
	bump()
	return c.recv(ctx)
}

// Query evaluates a query on the server and streams the result rows as
// they arrive (QUERYX). The returned Rows must be closed (or fully
// drained) before the client can carry another request. A connection
// that died between calls (peer restart under a pooled client)
// surfaces as ErrPeerDown on the eager first read — before any row was
// delivered — and is retried once over a fresh dial; QUERYX is a read,
// so the replay is safe.
func (c *Client) Query(ctx context.Context, src string, opts ...session.Option) (*session.Rows, error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	cfg := session.BuildConfig(opts)
	line := "QUERYX " + encodeFlags(cfg) + src

	first, next, finish, err := c.openStream(ctx, line, cfg.Timeout)
	if err != nil && errors.Is(err, session.ErrPeerDown) &&
		ctx.Err() == nil && c.redial() {
		first, next, finish, err = c.openStream(ctx, line, cfg.Timeout)
	}
	if err != nil {
		c.end()
		return nil, err
	}
	// The begin() claim stays held for the whole stream; fin releases
	// it when the terminator, an error, or Close is reached.
	done := false
	fin := func() {
		if done {
			return
		}
		done = true
		finish()
		c.end()
	}
	if first == nil {
		// Empty result: the attempt already saw x:end.
		fin()
	}
	delivered := first == nil
	pull := func() (*xmltree.Node, error) {
		if !delivered {
			delivered = true
			return first, nil
		}
		n, err := next()
		if n == nil || err != nil {
			fin()
		}
		return n, err
	}
	return session.NewRows(pull, func() error { fin(); return nil }), nil
}

// openStream performs one QUERYX attempt: arm the guard, apply the
// per-attempt timeout, send the request and eagerly read the first
// reply, so planning errors (bad query, missing document) surface from
// Query itself, exactly as they do on the local backend. The returned
// finish releases the attempt's guard and timeout (idempotent; it does
// NOT release the client's busy claim — the caller owns that). A
// failed attempt has already cleaned itself up.
func (c *Client) openStream(parent context.Context, line string, timeout time.Duration) (
	first *xmltree.Node, next func() (*xmltree.Node, error), finish func(), err error) {
	ctx := parent
	cancelTimeout := func() {}
	if timeout > 0 {
		// The timeout spans the whole stream, not just the open; the
		// derived context is released when the stream finishes.
		ctx, cancelTimeout = context.WithTimeout(parent, timeout)
	}
	bump, release := c.guard(ctx)
	finished := false
	finish = func() {
		if finished {
			return
		}
		finished = true
		release()
		cancelTimeout()
	}
	next = func() (*xmltree.Node, error) {
		if finished {
			return nil, nil
		}
		bump() // fresh I/O allowance per row
		root, err := c.recv(ctx)
		if err != nil {
			finish()
			return nil, err
		}
		switch root.Label {
		case "x:row":
			kids := detachChildren(root)
			if len(kids) == 0 {
				finish()
				return nil, fmt.Errorf("wire: empty row")
			}
			return kids[0], nil
		case "x:end":
			finish()
			return nil, nil
		default:
			finish()
			return nil, fmt.Errorf("wire: unexpected stream reply %q", root.Label)
		}
	}
	if err := c.send(ctx, line); err != nil {
		finish()
		return nil, nil, nil, err
	}
	first, err = next()
	if err != nil {
		return nil, nil, nil, err
	}
	return first, next, finish, nil
}

// QueryAll is Query + Collect: the whole result forest in one call.
func (c *Client) QueryAll(src string) ([]*xmltree.Node, error) {
	rows, err := c.Query(context.Background(), src)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// Exec runs an update statement (`delete <path>`, `replace <path> with
// <xml>`) — or a query whose results are discarded — on the server and
// reports the touched count.
func (c *Client) Exec(ctx context.Context, src string, opts ...session.Option) (int, error) {
	cfg := session.BuildConfig(opts)
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	root, err := c.roundTrip(ctx, "EXEC "+encodeFlags(cfg)+src)
	if err != nil {
		return 0, err
	}
	return countOf(root)
}

// Stats fetches the server's metrics-registry snapshot (STATS verb):
// plan-cache counters, streaming gauges, network totals, latency
// histograms — the wire face of axmlq -stats.
func (c *Client) Stats(ctx context.Context) (obs.Snapshot, error) {
	root, err := c.roundTrip(ctx, "STATS")
	if err != nil {
		return obs.Snapshot{}, err
	}
	return obs.SnapshotFromXML(root)
}

// Trace fetches the span tree the server recorded for a query sent
// with session.WithTraceID(id). Render it with obs.Render.
func (c *Client) Trace(ctx context.Context, id string) ([]obs.Span, error) {
	root, err := c.roundTrip(ctx, "TRACE "+id)
	if err != nil {
		return nil, err
	}
	_, spans, err := obs.SpansFromXML(root)
	return spans, err
}

// Prepare validates the statement on the server and warms its plan
// cache; the returned handle re-runs it without per-call planning
// work server-side.
func (c *Client) Prepare(ctx context.Context, src string) (*session.Stmt, error) {
	if _, err := c.roundTrip(ctx, "PREPARE "+src); err != nil {
		return nil, err
	}
	run := func(ctx context.Context, opts ...session.Option) (*session.Rows, error) {
		return c.Query(ctx, src, opts...)
	}
	return session.NewStmt(src, run, nil), nil
}

// Call invokes a declarative service with the given parameter trees.
func (c *Client) Call(ctx context.Context, service string, params ...*xmltree.Node) ([]*xmltree.Node, error) {
	var sb strings.Builder
	sb.WriteString("CALL ")
	sb.WriteString(service)
	if len(params) > 0 {
		sb.WriteByte(' ')
		for _, p := range params {
			sb.WriteString(xmltree.SerializeLine(p))
		}
	}
	root, err := c.roundTrip(ctx, sb.String())
	if err != nil {
		return nil, err
	}
	return detachChildren(root), nil
}

// Install installs a document on the server.
func (c *Client) Install(ctx context.Context, name string, doc *xmltree.Node) error {
	_, err := c.roundTrip(ctx, "INSTALL "+name+" "+xmltree.SerializeLine(doc))
	return err
}

func countOf(root *xmltree.Node) (int, error) {
	s, ok := root.Attr("n")
	if !ok {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("wire: bad count %q", s)
	}
	return n, nil
}

// DefineView materializes src as a view on the server. spec is the
// view name, optionally suffixed "@peer" (which must name the served
// peer).
func (c *Client) DefineView(ctx context.Context, spec, src string) error {
	_, err := c.roundTrip(ctx, "DEFVIEW "+spec+" "+src)
	return err
}

// List returns the server's document and service names.
func (c *Client) List(ctx context.Context) (docs, services []string, err error) {
	root, err := c.roundTrip(ctx, "LIST")
	if err != nil {
		return nil, nil, err
	}
	for _, ch := range root.ChildElements() {
		name, _ := ch.Attr("name")
		switch ch.Label {
		case "doc":
			docs = append(docs, name)
		case "service":
			services = append(services, name)
		}
	}
	return docs, services, nil
}

// ListViews returns the server's views as "name (mode): query" lines.
func (c *Client) ListViews(ctx context.Context) ([]string, error) {
	root, err := c.roundTrip(ctx, "LIST")
	if err != nil {
		return nil, err
	}
	var out []string
	for _, ch := range root.ChildElementsByLabel("view") {
		name, _ := ch.Attr("name")
		mode, _ := ch.Attr("mode")
		query, _ := ch.Attr("query")
		out = append(out, fmt.Sprintf("%s (%s): %s", name, mode, query))
	}
	return out, nil
}

// Placements returns the server's view-placement map and recent
// adaptive-placement decisions as printable lines.
func (c *Client) Placements(ctx context.Context) ([]string, error) {
	root, err := c.roundTrip(ctx, "PLACEMENTS")
	if err != nil {
		return nil, err
	}
	var out []string
	for _, ch := range root.ChildElements() {
		switch ch.Label {
		case "placement":
			v, _ := ch.Attr("view")
			at, _ := ch.Attr("at")
			mode, _ := ch.Attr("mode")
			bytes, _ := ch.Attr("bytes")
			trees, _ := ch.Attr("trees")
			epoch, _ := ch.Attr("epoch")
			behind, _ := ch.Attr("behind")
			out = append(out, fmt.Sprintf("%s@%s (%s): %s trees, %s bytes, epoch %s, behind %s",
				v, at, mode, trees, bytes, epoch, behind))
		case "decision":
			summary, _ := ch.Attr("summary")
			out = append(out, "decision "+summary)
		}
	}
	return out, nil
}

func detachChildren(root *xmltree.Node) []*xmltree.Node {
	out := make([]*xmltree.Node, 0, len(root.Children))
	for _, ch := range root.Children {
		ch.Parent = nil
		out = append(out, ch)
	}
	return out
}
