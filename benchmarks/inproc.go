package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/opt"
	"axml/internal/peer"
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/wire"
	datagen "axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// stack is an in-process copy of what one axmlpeer process holds: a
// simulated system with the served peer "store", the catalog at "store"
// or at "data", and a view manager. The layer pass and the traced replay
// call into it layer by layer.
type stack struct {
	sys   *core.System
	views *view.Manager
	store *peer.Peer
	host  *peer.Peer // the peer holding the catalog: store, or data when remote
}

func newStack(items int, remote bool, seed int64) (*stack, error) {
	st := &stack{sys: core.NewSystem(netsim.New())}
	st.store = st.sys.MustAddPeer("store")
	st.host = st.store
	if remote {
		st.host = st.sys.MustAddPeer("data")
	}
	st.views = view.NewManager(st.sys)
	if err := st.host.InstallDocument("catalog", datagen.Catalog(catalogSpec(items, seed))); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *stack) close() {
	st.views.Close()
	st.sys.Close()
}

// session opens a session at the served peer, as wire.Server does.
func (st *stack) session() (*session.Local, error) {
	return session.NewLocal(st.sys, st.views, st.store.ID)
}

// optimize runs the plan search the session runs on a plan-cache miss:
// the default rules plus the view manager's rewriting.
func (st *stack) optimize(q *xquery.Query) (*opt.Plan, int, error) {
	var o opt.Options
	o.ExtraRules = append(o.ExtraRules, st.views.Rule())
	return opt.Optimize(st.sys, st.store.ID, &core.Query{Q: q, At: st.store.ID}, o)
}

// evalPlan evaluates a planned expression at the served peer and drains
// the row stream, returning the rows.
func (st *stack) evalPlan(ctx context.Context, e core.Expr) ([]*xmltree.Node, error) {
	cur, err := st.sys.EvalCursorContext(ctx, st.store.ID, e)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var out []*xmltree.Node
	for {
		n, err := cur.Next()
		if err != nil || n == nil {
			return out, err
		}
		out = append(out, n)
	}
}

// leafQuery finds the innermost query of a plan that reads a document,
// and the peer that evaluates it — the part of a plan the query
// evaluator, as opposed to delegation and shipping, answers.
func (st *stack) leafQuery(e core.Expr) (*xquery.Query, *peer.Peer, error) {
	var leaf *core.Query
	core.Walk(e, func(x core.Expr) bool {
		if q, ok := x.(*core.Query); ok && len(q.Q.DocRefs()) > 0 {
			leaf = q
		}
		return true
	})
	if leaf == nil {
		return nil, nil, fmt.Errorf("plan %s reads no document", e)
	}
	p, ok := st.sys.Peer(leaf.At)
	if !ok {
		return nil, nil, fmt.Errorf("plan %s evaluates at unknown peer %s", e, leaf.At)
	}
	return leaf.Q, p, nil
}

// drainCursor evaluates q with the pull evaluator against p's documents
// and returns the number of rows.
func drainCursor(ctx context.Context, q *xquery.Query, p *peer.Peer) (int, error) {
	cur, err := q.EvalCursor(ctx, &xquery.Env{Resolve: p.Resolver()})
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	n := 0
	for {
		row, err := cur.Next()
		if err != nil || row == nil {
			return n, err
		}
		n++
	}
}

// drain consumes a session row stream and returns its rows.
func drain(rows *session.Rows, err error) ([]*xmltree.Node, error) {
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// applyWrite commits an update statement at the peer hosting the
// catalog, the way session.Local.Exec does after resolving the host.
func (st *stack) applyWrite(stmt string) error {
	upd, ok, err := session.ParseUpdate(stmt)
	if err != nil || !ok {
		return fmt.Errorf("bad update %q: %v", stmt, err)
	}
	n, err := session.ApplyUpdate(st.host, upd)
	if err != nil {
		return err
	}
	if n != 1 {
		return fmt.Errorf("update %q touched %d nodes", stmt, n)
	}
	return nil
}

// served is a stack behind an in-process wire.Server on a loopback port.
type served struct {
	srv  *wire.Server
	l    net.Listener
	done chan struct{}
}

func (st *stack) serve() (*served, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: &wire.Server{Peer: st.store, Views: st.views}, l: l, done: make(chan struct{})}
	go func() {
		_ = s.srv.Serve(l) // returns when close() closes the listener
		close(s.done)
	}()
	return s, nil
}

func (s *served) addr() string { return s.l.Addr().String() }

func (s *served) close() {
	_ = s.l.Close()
	<-s.done
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
}
