// Command axmlpeer serves one AXML peer over TCP: its documents are
// queryable and its declarative services callable through the wire
// protocol (see internal/wire). This is the deployment face of the
// framework — cmd/axmlq is the matching client.
//
// Queries are answered through the unified session pipeline
// (internal/session): view-aware optimization with a shared plan cache
// keyed by normalized query shape, streamed QUERYX replies, PREPARE
// for repeated statements, and typed error codes on every failure.
//
// Usage:
//
//	axmlpeer -addr :7012 -id store \
//	         -doc catalog=catalog.xml \
//	         -service bargains=bargains.xq
//
// -doc and -service may be repeated. Service files contain a query in
// the FLWR language; the query body is visible to clients (the paper's
// declarative-service model).
//
// A -doc spec may carry a trailing @peer (catalog=catalog.xml@data):
// the document is installed at that peer of the same simulated system
// instead of the served one, so queries over it delegate across the
// simulated network — which is what axmlq -explain-analyze traces and
// STATS/-metrics account. Absent peers are created on first use.
//
// Observability: -log-level selects the slog threshold for the
// process's structured logs (debug shows per-round placement
// telemetry); -metrics :9090 serves the unified metrics registry as
// JSON over HTTP GET /metrics — the same counters the STATS wire verb
// reports.
//
// Federation (internal/cluster): `-coordinator` runs the process as
// the cluster control plane (members register via HELLO; `-round`
// self-steps placement rounds, otherwise STEP drives them);
// `-join <addr>` runs it as a member of that coordinator — it
// heartbeats its inventory, answers DEMAND with its local demand
// export, ships and adopts views on MIGRATE/REPLICATE/ACCEPTVIEW, and
// forwards queries over documents other members host. `-advertise`
// overrides the address other members dial (defaults to the actual
// listen address); `-addr-file` writes that address to a file once the
// listener is up, which is how the test harness learns the port of an
// `-addr 127.0.0.1:0` process.
//
// On SIGINT/SIGTERM the process shuts down gracefully: the listener
// closes, in-flight requests (including QUERYX streams mid-row) drain,
// the member deregisters from its coordinator (BYE), view maintenance
// stops, and any still-pinned snapshot epochs are reported before
// exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"axml/internal/cluster"
	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/placement"
	"axml/internal/service"
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/wire"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

type pairList []string

func (p *pairList) String() string     { return strings.Join(*p, ",") }
func (p *pairList) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	addr := flag.String("addr", ":7012", "listen address")
	id := flag.String("id", "peer", "peer identifier")
	adaptive := flag.Duration("adaptive", 0,
		"adaptive-placement step interval (0 disables the controller)")
	budget := flag.Int64("view-budget", 0,
		"byte budget for view placements on this peer (0 = unlimited; implies the placement controller)")
	logLevel := flag.String("log-level", "info", "log threshold: debug, info, warn or error")
	metricsAddr := flag.String("metrics", "",
		"serve the metrics registry as JSON on this address (GET /metrics)")
	coordMode := flag.Bool("coordinator", false,
		"run as the federation coordinator (members register via HELLO)")
	round := flag.Duration("round", 0,
		"coordinator placement-round interval (0 = rounds only on STEP)")
	join := flag.String("join", "",
		"coordinator address to register with (runs this process as a federation member)")
	advertise := flag.String("advertise", "",
		"address other members dial to reach this process (default: the actual listen address)")
	heartbeat := flag.Duration("hb", 2*time.Second, "member HELLO heartbeat interval")
	addrFile := flag.String("addr-file", "",
		"write the actual listen address to this file once listening")
	var docs, services pairList
	flag.Var(&docs, "doc", "name=file[@peer] of a document to install (repeatable)")
	flag.Var(&services, "service", "name=file of a declarative service body (repeatable)")
	flag.Parse()

	logger, err := newLogger(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "axmlpeer: %v\n", err)
		os.Exit(2)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	// The peer lives inside a simulated system so that materialized
	// views (wire DEFVIEW, axmlq -view) have an evaluator and a
	// generics catalog behind them; -doc specs with @peer populate
	// further peers of the same system, giving queries something to
	// delegate to.
	sys := core.NewSystem(netsim.New())
	p := sys.MustAddPeer(netsim.PeerID(*id))
	views := view.NewManager(sys)
	defer views.Close()
	for _, spec := range docs {
		name, file, ok := strings.Cut(spec, "=")
		if !ok {
			fatal("bad -doc (want name=file[@peer])", "spec", spec)
		}
		file, at, _ := strings.Cut(file, "@")
		target := p
		if at != "" && at != *id {
			existing, ok := sys.Peer(netsim.PeerID(at))
			if !ok {
				existing = sys.MustAddPeer(netsim.PeerID(at))
			}
			target = existing
		}
		data, err := os.ReadFile(file)
		if err != nil {
			fatal("reading document", "file", file, "err", err)
		}
		root, err := xmltree.Parse(string(data))
		if err != nil {
			fatal("parsing document", "file", file, "err", err)
		}
		if err := target.InstallDocument(name, root); err != nil {
			fatal("installing document", "name", name, "err", err)
		}
		logger.Info("installed document", "name", name, "file", file, "peer", string(target.ID))
	}
	for _, spec := range services {
		name, file, ok := strings.Cut(spec, "=")
		if !ok {
			fatal("bad -service (want name=file)", "spec", spec)
		}
		data, err := os.ReadFile(file)
		if err != nil {
			fatal("reading service", "file", file, "err", err)
		}
		q, err := xquery.Parse(string(data))
		if err != nil {
			fatal("parsing service", "file", file, "err", err)
		}
		if err := p.RegisterService(&service.Service{
			Name: name, Provider: p.ID, Body: q,
		}); err != nil {
			fatal("registering service", "name", name, "err", err)
		}
		logger.Info("registered service", "name", name, "file", file)
	}

	// ctx ends on SIGINT/SIGTERM and stops every background ticker;
	// the serve loop below turns its cancellation into a graceful
	// drain.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	srv := &wire.Server{Peer: p, Views: views}
	if *adaptive > 0 || *budget > 0 {
		// A single served peer cannot migrate views anywhere, but the
		// controller still enforces the byte budget (benefit-weighted
		// eviction) and PLACEMENTS exposes its decision log; multi-peer
		// systems embed the same controller through the axml facade.
		ctrl := placement.New(views, placement.Config{
			DefaultBudget: *budget,
			Logger:        logger.With("component", "placement"),
			Metrics:       srv.MetricsRegistry(),
		})
		srv.Placements = ctrl
		srv.SessionOptions = []session.LocalOption{session.WithTrafficSink(ctrl.Observer())}
		if *adaptive <= 0 {
			// Budgets are enforced inside Step: a budget without an
			// explicit cadence still needs the ticker, or the limit
			// would silently never apply.
			*adaptive = 5 * time.Second
			logger.Info("view budget set without -adaptive; stepping the controller",
				"interval", *adaptive)
		}
		go stepEvery(ctx.Done(), *adaptive, ctrl.Step, logger, "placement step")
	}

	if *metricsAddr != "" {
		go serveMetrics(*metricsAddr, srv, logger)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", "addr", *addr, "err", err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(l.Addr().String()+"\n"), 0o644); err != nil {
			fatal("writing -addr-file", "file", *addrFile, "err", err)
		}
	}

	// Federation wiring happens after the listener is up: a member
	// advertises a dialable address, which by default is the one the
	// OS actually assigned.
	var member *cluster.Member
	switch {
	case *coordMode && *join != "":
		fatal("-coordinator and -join are mutually exclusive")
	case *coordMode:
		coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Logger:  logger.With("component", "cluster"),
			Metrics: srv.MetricsRegistry(),
		})
		srv.Coordinator = coord
		logger.Info("coordinating", "round", round.String())
		if *round > 0 {
			go stepEvery(ctx.Done(), *round, coord.Step, logger, "cluster round")
		}
	case *join != "":
		if *advertise == "" {
			*advertise = l.Addr().String()
		}
		obsv := placement.NewObserver()
		// The federation demand observer is the session's traffic
		// sink; it replaces an in-process controller's observer (the
		// coordinator decides placement for federated deployments).
		if srv.SessionOptions != nil {
			logger.Info("federation demand sink replaces the in-process controller's observer")
		}
		srv.SessionOptions = []session.LocalOption{session.WithTrafficSink(obsv)}
		member, err = cluster.NewMember(cluster.MemberConfig{
			ID:                *id,
			Advertise:         *advertise,
			Coordinator:       *join,
			SelfPeer:          p.ID,
			HeartbeatInterval: *heartbeat,
			Logger:            logger.With("component", "cluster"),
			Metrics:           srv.MetricsRegistry(),
		}, sys, views, obsv)
		if err != nil {
			fatal("joining federation", "err", err)
		}
		srv.Member = member
		srv.Forward = member
		member.Start()
		logger.Info("joined federation", "coordinator", *join, "advertise", *advertise)
	}

	logger.Info("peer listening", "id", *id, "addr", l.Addr().String())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	select {
	case err := <-serveErr:
		fatal("serve", "err", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight requests and
	// streams, deregister from the coordinator, stop view maintenance,
	// then report any snapshot epoch still pinned (drained streams
	// release theirs; a nonzero count here is a leak worth logging).
	stopSignals() // a second signal kills immediately
	logger.Info("shutting down")
	l.Close()
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Warn("drain incomplete; connections cut", "err", err)
	}
	cancelDrain()
	if member != nil {
		member.Close()
	}
	views.Close()
	pins := 0
	for _, pid := range sys.Peers() {
		if pp, ok := sys.Peer(pid); ok {
			pins += pp.PinnedEpochs()
		}
	}
	if pins > 0 {
		logger.Warn("snapshot epochs still pinned at exit", "pins", pins)
	} else {
		logger.Info("shutdown complete")
	}
}

// stepEvery runs one placement round per tick until stop closes. The
// rounds do not inherit the process context: one in flight at shutdown
// finishes rather than abandoning a view mid-ship.
func stepEvery(stop <-chan struct{}, every time.Duration,
	step func(context.Context) ([]placement.Decision, error), logger *slog.Logger, label string) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if _, err := step(context.Background()); err != nil {
			logger.Warn(label, "err", err)
		}
	}
}

// newLogger builds the process logger at the requested threshold.
func newLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// serveMetrics exposes the server's metrics registry over HTTP:
// GET /metrics returns the snapshot as JSON — the same counters,
// gauges and histograms the STATS wire verb reports.
func serveMetrics(addr string, srv *wire.Server, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(srv.MetricsRegistry().Snapshot()); err != nil {
			logger.Warn("metrics encode", "err", err)
		}
	})
	logger.Info("metrics endpoint", "addr", addr, "path", "/metrics")
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("metrics endpoint failed", "err", err)
	}
}
