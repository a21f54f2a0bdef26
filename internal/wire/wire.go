// Package wire implements a small line-oriented TCP protocol exposing
// one peer's documents and services to remote clients — the stand-in
// for the WSDL/SOAP endpoint of the original AXML system (paper §2.1:
// services "correspond to (simplified) WSDL request-response
// operations").
//
// A request is one line, a verb and its arguments. Every verb answers
// the same way: zero or more <x:row>…</x:row> lines, one tree each, then
// <x:end n="K"/>:
//
//	QUERYX [+flags] <statement>       → the statement's rows
//	CALL <service> [<param-forest>]   → one row per tree of the service's forest
//	LIST                              → one row <x:info>…</x:info>
//	PLACEMENTS                        → one row <x:placements>…</x:placements>
//	STATS                             → one row <x:stats>…</x:stats>
//	TRACE <trace-id>                  → one row <x:trace>…</x:trace>
//	QUIT                              (closes the connection)
//
// CALL applies any service registered on the served peer the way a
// netsim call reaches its provider (core.System.ApplyCall): the
// signature checks each parameter tree, one tree per parameter, then a
// declarative service runs its query and a builtin its Go function. The
// federation's control actions are builtins of this kind, registered
// under the reserved x: prefix by the role a process plays
// (internal/cluster); a process that does not play the role has no
// such service.
//
// Any verb may instead answer one line <x:error code="kind">message</x:error>.
// The code — canceled, no-such-doc, no-such-service, peer-down,
// bad-query, view-moved, line-break, internal — maps back onto the typed sentinels
// local evaluation returns (session.ErrCanceled &co), so callers branch
// on failure kind without knowing which backend they are talking to.
//
// QUERYX takes one optional +flag+flag… token before the statement,
// whatever its kind; an unknown flag is a bad-query error:
//
//	+noopt        evaluate as written: no rewrite search, no plan cache
//	+snapshot     pin the statement to one epoch of the served peer's store
//	+fwd          forwarded by another member: not counted as demand here,
//	              never forwarded again
//	+trace=<id>   record a span tree, fetched back with TRACE <id>
//
// QUERYX runs any statement of the xquery grammar through the server's
// shared session (internal/session). An update (`delete <path>`,
// `replace <path> with <xml>`) answers one row <x:ok n="K"/>, a
// declaration (`declare view "v" [at "<served peer>"] as <xquery>`,
// `declare document "d" as <xml>`) one row <x:ok/>. A query goes plan
// cache → refresh the views the plan reads → pull-based cursor: a text
// seen before runs its cached plan without a parse, a new text is parsed
// and keyed by its normalized shape, and a shape's first run (or first
// after a view-catalog change) warms the cache through the optimizer. QUERYX writes each row into
// the connection buffer as the cursor yields it and flushes a query's
// first row alone, so it reaches the client while evaluation
// continues; the rest leave whenever the buffer fills. A
// failure after the first row ends the stream with an <x:error> line in
// place of <x:end>, and a client that hangs up mid-stream is seen at the
// next buffer write, which abandons the cursor — evaluation stops
// within one buffer of rows.
//
// Every reply row and every tree a request carries is one line: CR and LF
// inside text and attribute values travel as &#13; and &#10;
// (xmltree.AppendLine), which the receiving parser decodes. A request
// line itself carries &, CR and LF as &amp;, &#13; and &#10;, which the
// server decodes before it reads the verb, so a statement holding a
// line break means what it means locally. Updates emit
// typed change notifications, so views over the touched documents
// retract or re-derive the affected rows on their next refresh.
//
// Every server fronts a peer of a core.System (Server.Views), whatever
// role its process plays; Serve refuses a server without one.
//
// STATS returns the server's metrics-registry snapshot; PLACEMENTS the
// view-placement map of the attached controller's deployment and its
// recent decisions (Server.Placements), or of Server.Views without one.
package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
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
	"axml/internal/xquery"
)

// maxLine bounds request/reply sizes (16 MiB).
const maxLine = 16 << 20

// Server serves one peer over a listener. Views is the view manager of
// the core.System the peer belongs to, and is required.
type Server struct {
	Peer  *peer.Peer
	Views *view.Manager
	// Placements optionally attaches an adaptive-placement controller:
	// PLACEMENTS then lists its deployment's placements and its decision
	// log, and deployments (cmd/axmlpeer -adaptive, -coordinator) step
	// it on a ticker.
	Placements *placement.Controller
	// SessionOptions configure the server's shared query session (for
	// example session.WithTrafficSink to feed the placement observer).
	SessionOptions []session.LocalOption
	// Metrics optionally supplies the unified metrics registry the
	// STATS verb serves. When nil, the server creates one on first use;
	// either way the registry carries the wire streaming counters (as
	// gauges), the shared session's plan-cache counters, the network
	// totals, and the ring of recent query traces (+trace=<id> on
	// QUERYX; fetched back with TRACE <id>).
	Metrics *obs.Registry
	// Forward optionally routes queries over documents this deployment
	// does not host to the member that does (cluster.Member implements
	// it). Only a query forwards, and only when the request did not
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

// Forwarder routes a query over a document this deployment does not
// host to the member that does. ok=false means the forwarder has no
// route for it and the original error stands.
type Forwarder interface {
	ForwardQuery(ctx context.Context, src string) (rows *session.Rows, ok bool, err error)
}

// MetricsRegistry returns the server's registry — the one behind the
// STATS verb — creating and wiring it on first use: streaming counters
// and network totals become gauges (the atomics/netsim stay the owners;
// the registry samples them), and the session pipeline mirrors its
// plan-cache counters in (see Server.session). Hand it to cooperating
// components (placement.Config.Metrics, the cluster's coordinator and
// members) so the deployment reports through one registry. Gauge
// registration is idempotent, so sharing one registry across servers
// of one deployment is safe.
func (s *Server) MetricsRegistry() *obs.Registry {
	s.metricsOnce.Do(func() {
		if s.Metrics == nil {
			s.Metrics = obs.NewRegistry()
		}
		s.Metrics.Gauge("wire.streams_started", func() int64 { return int64(s.streamsStarted.Load()) })
		s.Metrics.Gauge("wire.rows_streamed", func() int64 { return int64(s.rowsStreamed.Load()) })
		s.Metrics.Gauge("wire.streams_aborted", func() int64 { return int64(s.streamsAborted.Load()) })
		s.Views.System().RegisterGauges(s.Metrics)
	})
	return s.Metrics
}

// session returns the server's shared query session (one plan cache
// across all connections) — the only way a data verb is served. A
// failure to build the session is a misconfiguration; it is remembered
// and every data verb reports it.
func (s *Server) session() (*session.Local, error) {
	s.sessOnce.Do(func() {
		// The shared session counts into the server's registry, so a
		// STATS snapshot carries its session.plan_cache.* counters.
		opts := append([]session.LocalOption{session.WithMetrics(s.MetricsRegistry())}, s.SessionOptions...)
		s.sess, s.sessErr = session.NewLocal(s.Views.System(), s.Views, s.Peer.ID, opts...)
	})
	return s.sess, s.sessErr
}

// Serve accepts connections until the listener is closed. It refuses
// a server without Views.
func (s *Server) Serve(l net.Listener) error {
	if s.Views == nil {
		return errors.New("wire: a server needs the view manager of its peer's system")
	}
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

// errorKinds is the protocol's error vocabulary: each x:error code
// with the typed sentinel it stands for. The server reads it from error
// to code (errCode), the client from code back to error (serverError);
// an error of no kind here is internal.
var errorKinds = []struct {
	code string
	err  error
}{
	{"canceled", session.ErrCanceled},
	{"no-such-doc", session.ErrNoSuchDoc},
	{"no-such-service", session.ErrNoSuchService},
	{"peer-down", session.ErrPeerDown},
	{"bad-query", session.ErrBadQuery},
	{"view-moved", session.ErrViewMoved},
	{"line-break", xmltree.ErrLineBreak},
}

// errCode classifies an error into the protocol's code vocabulary; a
// context's own expiry is a cancellation too.
func errCode(err error) string {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return "canceled"
	}
	for _, k := range errorKinds {
		if errors.Is(err, k.err) {
			return k.code
		}
	}
	return "internal"
}

// serverError turns an x:error line back into an error that matches
// its code's sentinel. The kind is named once: a message that already
// names it keeps its words, any other is prefixed with it.
func serverError(code, msg string) error {
	for _, k := range errorKinds {
		if k.code != code {
			continue
		}
		if before, after, ok := strings.Cut(msg, k.err.Error()); ok {
			return fmt.Errorf("wire: server: %s%w%s", before, k.err, after)
		}
		return fmt.Errorf("wire: server: %w: %s", k.err, msg)
	}
	return fmt.Errorf("wire: server: %s", msg)
}

func errReply(err error) string {
	line, _ := xmltree.AppendLine(nil, xmltree.E("x:error", xmltree.A("code", errCode(err)), xmltree.T(err.Error())))
	return string(line) // text and attributes always fit a line
}

// dispatch executes one request line. Every verb answers zero or more
// <x:row> lines then <x:end n="K"/>, or one <x:error> line: QUERYX
// writes its rows as its cursor yields them, CALL one row per tree of
// its forest, and LIST, PLACEMENTS, STATS and TRACE one row each.
func (s *Server) dispatch(line string, w *bufio.Writer) {
	if strings.IndexByte(line, '&') >= 0 {
		line = requestUnescaper.Replace(line)
	}
	cmd, rest, _ := strings.Cut(line, " ")
	var out []*xmltree.Node
	var err error
	switch strings.ToUpper(cmd) {
	case "QUERYX":
		s.doQueryStream(rest, w)
		return
	case "CALL":
		out, err = s.doCall(rest)
	case "LIST":
		out = []*xmltree.Node{s.doList()}
	case "PLACEMENTS":
		out = []*xmltree.Node{s.doPlacements()}
	case "STATS":
		out = []*xmltree.Node{s.doStats()}
	case "TRACE":
		out, err = s.doTrace(rest)
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		fmt.Fprintln(w, errReply(err))
		return
	}
	for _, n := range out {
		row, err := xmltree.AppendLine(append(w.AvailableBuffer(), "<x:row>"...), n)
		if err != nil {
			fmt.Fprintln(w, errReply(err))
			return
		}
		_, _ = w.Write(append(row, "</x:row>\n"...))
	}
	fmt.Fprintf(w, "<x:end n=\"%d\"/>\n", len(out))
}

// The escaping of a request line: &, CR and LF as xmltree.AppendLine
// writes them, so one line carries any statement.
var (
	requestEscaper   = strings.NewReplacer("&", "&amp;", "\r", "&#13;", "\n", "&#10;")
	requestUnescaper = strings.NewReplacer("&amp;", "&", "&#13;", "\r", "&#10;", "\n")
)

// wireFlags is the flag vocabulary of QUERYX: the session.Config
// switches the wire carries, each with the option that sets it. Both
// directions of the codec read this one table; the valued +trace=<id>
// is handled beside it.
var wireFlags = []struct {
	name string
	set  func(*session.Config) bool
	opt  func() session.Option
}{
	{"noopt", func(c *session.Config) bool { return c.NoOptimize }, session.WithNoOptimize},
	{"snapshot", func(c *session.Config) bool { return c.SnapshotIsolation }, session.WithSnapshotIsolation},
	// Forwarded from another member: kept out of this deployment's
	// demand counters (the forwarding member already recorded it where
	// the consumer sits) and not forwarded again.
	{"fwd", func(c *session.Config) bool { return c.NoTraffic }, session.WithNoTraffic},
}

// encodeFlags renders the wire-carried part of a call's options as the
// "+flag+flag " token that precedes the statement of a QUERYX request
// — empty when no flag is set.
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
// token off a QUERYX request and returns the options it stands
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
	reg := s.MetricsRegistry()
	return obs.WithTrace(ctx, tr), func() { reg.RecordTrace(tr) }
}

// doQueryStream answers QUERYX: one x:row line per result tree as the
// session cursor yields it, then x:end; a statement other than a
// query answers its one row. Each row goes straight into the
// connection buffer: serialized from the cursor's tree, or, for a row
// another peer answered, copied as the bytes it came in unless they
// hold a CR or LF (Rows.AppendLine). A query's first row is flushed
// alone, so it reaches the client while evaluation continues; the rest
// leave whenever the buffer fills, and handle flushes what is left.
// Errors before the first row (planning, setup) produce a single
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
		// without a forwarder, so a stale route cannot loop. Any other
		// statement is never forwarded: the forwarding client could
		// replay it.
		if s.Forward != nil && !cfg.NoTraffic && errors.Is(err, session.ErrNoSuchDoc) &&
			xquery.StatementKind(src) == "query" {
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
		// The row is written straight into the buffer's free space and
		// handed over with one call; a row longer than that space goes
		// into a fresh slice, which Write then spreads over flushes. A
		// row whose bytes do not parse ends the stream with its error.
		row, err := rows.AppendLine(append(w.AvailableBuffer(), "<x:row>"...))
		if err != nil {
			break
		}
		// A query's first row is flushed alone. Any other statement
		// answers one x:ok row, which leaves with its x:end in one
		// write; only a stream that starts with an x:ok is classified.
		_, werr := w.Write(append(row, "</x:row>\n"...))
		if werr == nil && n == 0 && (!bytes.HasPrefix(row, []byte("<x:row><x:ok")) ||
			xquery.StatementKind(src) == "query") {
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
	fmt.Fprintf(w, "<x:end n=\"%d\"/>\n", n)
}

// doCall applies a service of the served peer to one parameter per
// tree, as a netsim call applies it at its provider.
func (s *Server) doCall(rest string) ([]*xmltree.Node, error) {
	name, paramXML, _ := strings.Cut(rest, " ")
	if name == "" {
		return nil, fmt.Errorf("CALL requires a service name")
	}
	var args [][]*xmltree.Node
	if strings.TrimSpace(paramXML) != "" {
		trees, err := xmltree.ParseFragment(paramXML)
		if err != nil {
			return nil, err
		}
		for _, t := range trees {
			args = append(args, []*xmltree.Node{t})
		}
	}
	out, _, err := s.Views.System().ApplyCall(context.Background(), s.Peer.ID, name, args)
	return out, err
}

func (s *Server) doList() *xmltree.Node {
	info := xmltree.E("x:info")
	for _, d := range s.Peer.DocumentNames() {
		info.AppendChild(xmltree.E("doc", xmltree.A("name", d)))
	}
	for _, svc := range s.Peer.ServiceNames() {
		info.AppendChild(xmltree.E("service", xmltree.A("name", svc)))
	}
	for _, v := range s.Views.Views() {
		info.AppendChild(xmltree.E("view",
			xmltree.A("name", v.Name),
			xmltree.A("mode", v.Mode),
			xmltree.A("query", v.Query)))
	}
	return info
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

// doPlacements reports the placement map of the attached controller's
// deployment and its recent decisions — at a coordinator the map merged
// from member demand exports, whose `at` names a member — or, without a
// controller, the served view manager's map.
func (s *Server) doPlacements() *xmltree.Node {
	var placements []view.PlacementInfo
	if s.Placements != nil {
		placements = s.Placements.Placements()
	} else {
		placements = s.Views.Placements()
	}
	root := xmltree.E("x:placements")
	for _, pi := range placements {
		root.AppendChild(placementToXML(pi))
	}
	if s.Placements != nil {
		for _, d := range s.Placements.Decisions() {
			root.AppendChild(d.ToXML())
		}
	}
	return root
}

// doStats answers STATS with the registry snapshot: wire streaming
// gauges, session plan-cache counters, network totals, and whatever
// else the deployment feeds the shared registry (placement decisions,
// query latency histograms).
func (s *Server) doStats() *xmltree.Node {
	// Touch the session first so its counters exist in the snapshot
	// even before the first query.
	_, _ = s.session()
	return obs.SnapshotToXML(s.MetricsRegistry().Snapshot())
}

// doTrace answers TRACE <id> with the span tree recorded for a
// +trace=<id> query, if it is still in the recent-traces ring.
func (s *Server) doTrace(rest string) ([]*xmltree.Node, error) {
	id := strings.TrimSpace(rest)
	if id == "" {
		return nil, fmt.Errorf("TRACE requires a trace id")
	}
	tr := s.MetricsRegistry().TraceByID(id)
	if tr == nil {
		return nil, fmt.Errorf("trace: no trace %q (traced queries use +trace=<id>; the ring keeps the most recent)", id)
	}
	return []*xmltree.Node{obs.SpansToXML(tr.ID, tr.Spans())}, nil
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
// unified session interface: Query runs any statement, Exec reports
// its count, Prepare pins a query — same methods, options and error
// kinds as a local axml session. Every method goes through one path:
// send the request line, read the reply's rows through x:end. A
// Client serializes its calls; a streaming Rows must be closed (or
// drained) before the next request.
type Client struct {
	conn      net.Conn
	sc        *bufio.Scanner
	ioTimeout time.Duration

	// addr and dialTimeout enable a transparent one-shot reconnect:
	// when the open of a read — a query, or LIST, PLACEMENTS, STATS or
	// TRACE — on a pooled connection fails with ErrPeerDown before its
	// first reply line arrived — a peer restarted under us — the client
	// redials once and sends it again. An update, a declaration or a
	// CALL (maybe a control action such as a demand export, which
	// decays what it exported) may have taken effect, so its caller
	// sees ErrPeerDown and decides. Clients built directly over an
	// existing conn (tests, pipes) have addr == "" and never redial.
	addr        string
	dialTimeout time.Duration

	mu     sync.Mutex
	busy   bool // a request, from its open to the end of its reply, owns the conn
	closed bool
	// dead is set, by the request that owns the conn, when its reply
	// ended without its terminator (canceled, timed out, cut off): the
	// conn may still hold the rest of that reply, so the next request
	// redials, or fails with ErrPeerDown when the client has no address.
	dead bool
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
// address. Callers must hold the busy claim (no other request can
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
	c.conn, c.sc, c.dead = conn, sc, false
	c.mu.Unlock()
	_ = old.Close()
	return true
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

// begin claims the connection for one request; end releases it. A
// failed begin means the context is already done, another call or an
// open Rows owns the line, or the line is dead and cannot be redialed;
// it leaves the connection as it was.
func (c *Client) begin(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("wire: %w: %v", session.ErrCanceled, err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return session.ErrClosed
	}
	if c.busy {
		c.mu.Unlock()
		return fmt.Errorf("wire: connection busy (concurrent call, or previous Rows not closed)")
	}
	c.busy = true
	dead := c.dead
	c.mu.Unlock()
	if dead && !c.redial() {
		c.end()
		return fmt.Errorf("wire: connection left mid-reply: %w", session.ErrPeerDown)
	}
	return nil
}

func (c *Client) end() {
	c.mu.Lock()
	c.busy = false
	c.mu.Unlock()
}

// open sends one request line and reads the first line of its reply,
// so a request the server refuses fails here, as it does on a local
// session. When replay is set, an open that found the connection gone
// — a peer restarted under a pooled client — is sent once more over a
// fresh dial. A served peer-down error came over a live connection,
// about another peer: it is not replayed. The returned Rows owns the
// connection until its reply ends or it is closed; timeout, when set,
// bounds the whole reply.
func (c *Client) open(ctx context.Context, line string, timeout time.Duration, replay bool) (*session.Rows, error) {
	if err := c.begin(ctx); err != nil {
		return nil, err
	}
	s, err := c.start(ctx, line, timeout)
	if err != nil && replay && c.dead && errors.Is(err, session.ErrPeerDown) && ctx.Err() == nil && c.redial() {
		s, err = c.start(ctx, line, timeout)
	}
	if err != nil {
		c.end()
		return nil, err
	}
	if s.first == nil {
		s.finish() // an empty reply: its x:end is read
	}
	return session.NewRows(s.pull, s.close), nil
}

// read runs a read verb, whose reply is one row, and returns that row.
func (c *Client) read(ctx context.Context, line string) (*xmltree.Node, error) {
	rows, err := c.open(ctx, line, 0, true)
	if err != nil {
		return nil, err
	}
	out, err := rows.Collect()
	if err != nil {
		return nil, err
	}
	if len(out) != 1 {
		return nil, fmt.Errorf("wire: %s answered %d rows, want 1", line, len(out))
	}
	return out[0], nil
}

// stream is one request's reply as the client reads it, line by line.
// The caller holds the client's busy claim until finish.
type stream struct {
	c   *Client
	ctx context.Context
	// cancel ends the per-call timeout's context; nil without one.
	cancel context.CancelFunc
	// stop disarms the cancellation armed on a context that can be
	// canceled, and stopped closes once an armed one has run.
	stop    func() bool
	stopped chan struct{}
	armed   time.Time     // the deadline set on the connection
	first   *xmltree.Node // read with the request; handed out by the first pull
	done    bool
}

// start arms a stream for one attempt, sends the request line and
// reads the first reply line. A failed start has released what it
// armed; the caller keeps the busy claim either way.
func (c *Client) start(ctx context.Context, line string, timeout time.Duration) (*stream, error) {
	s := &stream{c: c, ctx: ctx}
	if timeout > 0 {
		s.ctx, s.cancel = context.WithTimeout(ctx, timeout)
	}
	s.arm()
	// A context that can be canceled aborts in-flight I/O the moment it
	// is; one that cannot arms no cancellation.
	if s.ctx.Done() != nil {
		s.stopped = make(chan struct{})
		s.stop = context.AfterFunc(s.ctx, func() {
			defer close(s.stopped)
			c.poison()
		})
	}
	var err error
	if _, err = fmt.Fprintln(c.conn, requestEscaper.Replace(line)); err != nil {
		c.dead = true
		err = c.ioError(s.ctx, err)
	} else {
		s.first, err = s.next()
	}
	if err != nil {
		s.release()
		return nil, err
	}
	return s, nil
}

// arm (re-)applies the deadline — the I/O timeout from now, tightened
// by the context's own deadline — before each connection operation, so
// each line of a long reply gets a fresh allowance. A deadline equal
// to the one already set is not set again, so without an I/O timeout a
// reply arms once.
func (s *stream) arm() {
	if s.ctx.Err() != nil {
		// The cancellation may not have poisoned it yet: a canceled
		// context must never get to send or read.
		s.c.poison()
		return
	}
	var dl time.Time
	if s.c.ioTimeout > 0 {
		dl = time.Now().Add(s.c.ioTimeout)
	}
	if d, ok := s.ctx.Deadline(); ok && (dl.IsZero() || d.Before(dl)) {
		dl = d
	}
	if dl.Equal(s.armed) {
		return // as set: a request starts with none, and each reply clears its own
	}
	s.armed = dl
	_ = s.c.conn.SetDeadline(dl) // zero time clears
	if s.ctx.Err() != nil {
		// The cancellation may have run between the check and the set;
		// poison again so a canceled context never waits out a fresh
		// allowance.
		s.c.poison()
	}
}

// poison sets a deadline in the past, so any I/O on the connection,
// in flight or to come, fails at once.
func (c *Client) poison() {
	_ = c.conn.SetDeadline(time.Now().Add(-time.Second))
}

// release disarms the stream. It waits out a cancellation already
// running before it clears the deadline, so a late cancellation can
// never poison the connection for the next request.
func (s *stream) release() {
	if s.stop != nil && !s.stop() {
		<-s.stopped
	}
	_ = s.c.conn.SetDeadline(time.Time{})
	if s.cancel != nil {
		s.cancel()
	}
}

// finish ends the stream, once: it releases the stream and the
// client's busy claim.
func (s *stream) finish() {
	if s.done {
		return
	}
	s.done = true
	s.release()
	s.c.end()
}

// next reads one reply line: a row's node, nil at x:end, or the error
// an x:error line, a line out of the protocol or a lost connection
// stands for. An x:error maps back onto its typed sentinel.
func (s *stream) next() (*xmltree.Node, error) {
	s.arm() // a fresh I/O allowance per line
	c := s.c
	// A line the scanner hands back alongside an error is what arrived
	// before the error cut it short: it is never parsed.
	if !c.sc.Scan() || c.sc.Err() != nil {
		c.dead = true
		if err := c.sc.Err(); err != nil {
			return nil, c.ioError(s.ctx, err)
		}
		return nil, fmt.Errorf("wire: connection closed: %w", session.ErrPeerDown)
	}
	root, err := xmltree.Parse(c.sc.Text())
	switch {
	case err != nil:
		err = fmt.Errorf("wire: bad reply: %w", err)
	case root.Label == "x:row" && len(root.Children) > 0:
		return root.Children[0], nil
	case root.Label == "x:end":
		return nil, nil
	case root.Label == "x:error":
		code, _ := root.Attr("code")
		return nil, serverError(code, root.TextContent())
	case root.Label == "x:row":
		err = fmt.Errorf("wire: empty row")
	default:
		err = fmt.Errorf("wire: unexpected reply %q", root.Label)
	}
	c.dead = true
	return nil, err
}

// pull hands the reply to session.Rows: the first row, read with the
// request, then a line at a time; the zero row once the reply ended.
func (s *stream) pull() (core.Row, error) {
	if s.done {
		return core.Row{}, nil
	}
	n, err := s.first, error(nil)
	if n != nil {
		s.first = nil
	} else {
		n, err = s.next()
	}
	if n == nil {
		s.finish()
	}
	return core.NodeRow(n), err
}

// close ends the stream for session.Rows. Rows drains a reply before
// it closes it; a reply it gave up on leaves its rest on the
// connection, so the next request redials.
func (s *stream) close() error {
	if !s.done {
		s.c.dead = true
		s.finish()
	}
	return nil
}

// Query runs a statement on the server and streams the result rows as
// they arrive (QUERYX). The returned Rows must be closed (or fully
// drained) before the client can carry another request. A connection
// that died between calls (peer restart under a pooled client)
// surfaces as ErrPeerDown on the eager first read — before any row was
// delivered — and a query is retried once over a fresh dial; any other
// statement is not, because it may have taken effect.
func (c *Client) Query(ctx context.Context, src string, opts ...session.Option) (*session.Rows, error) {
	cfg := session.BuildConfig(opts)
	return c.open(ctx, "QUERYX "+encodeFlags(cfg)+src, cfg.Timeout, xquery.StatementKind(src) == "query")
}

// QueryAll is Query + Collect: the whole result forest in one call.
func (c *Client) QueryAll(src string) ([]*xmltree.Node, error) {
	rows, err := c.Query(context.Background(), src)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// Exec runs a statement on the server through Query, reads its stream
// to the end and reports its count (session.Exec).
func (c *Client) Exec(ctx context.Context, src string, opts ...session.Option) (int, error) {
	return session.Exec(ctx, c, src, opts...)
}

// Stats fetches the server's metrics-registry snapshot (STATS verb):
// plan-cache counters, streaming gauges, network totals, latency
// histograms — the wire face of axmlq -stats.
func (c *Client) Stats(ctx context.Context) (obs.Snapshot, error) {
	root, err := c.read(ctx, "STATS")
	if err != nil {
		return obs.Snapshot{}, err
	}
	return obs.SnapshotFromXML(root)
}

// Trace fetches the span tree the server recorded for a query sent
// with session.WithTraceID(id). Render it with obs.Render.
func (c *Client) Trace(ctx context.Context, id string) ([]obs.Span, error) {
	root, err := c.read(ctx, "TRACE "+id)
	if err != nil {
		return nil, err
	}
	_, spans, err := obs.SpansFromXML(root)
	return spans, err
}

// Prepare checks that src parses as a query and returns a handle that
// runs it through Query. The server plans a query the first time it
// runs and answers its repeats from the plan cache, so nothing is sent
// ahead of the first run.
func (c *Client) Prepare(ctx context.Context, src string) (*session.Stmt, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, session.ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("wire: %w: %v", session.ErrCanceled, err)
	}
	if _, err := xquery.Parse(src); err != nil {
		return nil, fmt.Errorf("%w: %v", session.ErrBadQuery, err)
	}
	run := func(ctx context.Context, opts ...session.Option) (*session.Rows, error) {
		return c.Query(ctx, src, opts...)
	}
	return session.NewStmt(src, run), nil
}

// Call invokes a service of the served peer with the given parameter
// trees, one per parameter. It is never replayed after a lost reply.
func (c *Client) Call(ctx context.Context, service string, params ...*xmltree.Node) ([]*xmltree.Node, error) {
	var sb strings.Builder
	sb.WriteString("CALL ")
	sb.WriteString(service)
	if len(params) > 0 {
		sb.WriteByte(' ')
		for _, p := range params {
			sb.WriteString(xmltree.Serialize(p)) // the request line escapes CR and LF
		}
	}
	rows, err := c.open(ctx, sb.String(), 0, false)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// Install installs a document on the server: a declare document
// statement.
func (c *Client) Install(ctx context.Context, name string, doc *xmltree.Node) error {
	_, err := c.Exec(ctx, xquery.Statement{Kind: "document", Name: name, With: doc}.String())
	return err
}

// DefineView materializes src as a view on the server: a declare view
// statement. spec is the view name, optionally suffixed "@peer" (which
// must name the served peer).
func (c *Client) DefineView(ctx context.Context, spec, src string) error {
	name, at, _ := strings.Cut(spec, "@")
	_, err := c.Exec(ctx, xquery.Statement{Kind: "view", Name: name, At: at}.String()+src)
	return err
}

// List returns the server's document and service names.
func (c *Client) List(ctx context.Context) (docs, services []string, err error) {
	root, err := c.read(ctx, "LIST")
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
	root, err := c.read(ctx, "LIST")
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
	root, err := c.read(ctx, "PLACEMENTS")
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
