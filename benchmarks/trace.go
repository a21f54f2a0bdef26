package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"axml/internal/core"
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/wire"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// The traced run. The program under test records no spans of its own
// that reach below the session, so the benchmark replays each request
// at every nesting level from its own code and times the call into that
// level: the whole request through a wire.Client against an in-process
// wire.Server; inside it the session's Query and drain, and the
// serialisation and re-parsing of the rows; inside the session the
// optimizer (when the shape is new), the view refresh and the plan's
// evaluation; inside the evaluation the query evaluator on the leaf
// query. Each level runs on its own copy of the system, so a level's
// call meets the state the request met one level up. A layer's self time
// is its span minus the spans nested directly inside it.

// Layers a span can belong to, in the order the shares are reported.
var traceLayers = []string{"wire", "xmltree_serialize", "xmltree_parse",
	"session", "opt", "view", "core", "xquery", "peer"}

// maxTraced is how many requests of a workload are traced, time allowing.
const maxTraced = 200

// span is one timed call into one layer on behalf of one request.
type span struct {
	Request int    `json:"request"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: the request's root span
	Layer   string `json:"layer"`
	Op      string `json:"op"` // read | write
	// Start and End are nanoseconds since the trace began. A nested span
	// was measured by its own replay; it is placed at the start of its
	// parent, which is where the call happens.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

// add records a span of duration d nested under parent (0 for a root),
// starting where its parent starts, and returns its id.
func (t *tracer) add(req, parent int, layer, op string, start time.Time, d time.Duration) int {
	id := len(t.spans) + 1
	s := start.Sub(t.origin).Nanoseconds()
	t.spans = append(t.spans, span{Request: req, ID: id, Parent: parent,
		Layer: layer, Op: op, Start: s, End: s + d.Nanoseconds()})
	return id
}

// shares reduces the spans to each layer's share of the total root time.
// Replays are separate measurements, so on one request a child can come
// out longer than its parent; self times are therefore summed per layer
// over all requests, signed, before anything is clipped. What remains
// negative after that is time the nesting cannot attribute, reported as a
// percentage of the total.
func (t *tracer) shares() (share map[string]float64, unattributedPct float64) {
	children := map[int]int64{}
	var total int64
	for _, s := range t.spans {
		if s.Parent == 0 {
			total += s.End - s.Start
		} else {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for _, s := range t.spans {
		self[s.Layer] += s.End - s.Start - children[s.ID]
	}
	share = map[string]float64{}
	if total == 0 {
		return share, 0
	}
	var excess int64
	for _, l := range traceLayers {
		if self[l] < 0 {
			excess -= self[l]
			self[l] = 0
		}
		share[l] = float64(self[l]) / float64(total)
	}
	return share, 100 * float64(excess) / float64(total)
}

// level is one copy of the system, driven at one nesting depth.
type level struct {
	st    *stack
	plans map[string]core.Expr // C and X: the plan cache the session would hold
}

func newLevel(wl *workload, m *model, seed int64) (*level, error) {
	st, err := newStack(wl.items, wl.remote, seed)
	if err != nil {
		return nil, err
	}
	if wl.view {
		if err := st.views.Define(viewName, viewQuery(m), st.store.ID); err != nil {
			st.close()
			return nil, err
		}
	}
	return &level{st: st, plans: map[string]core.Expr{}}, nil
}

// plan returns the cached plan of src, or optimizes it; planned reports
// how long the search took (0 on a hit).
func (l *level) plan(src string) (e core.Expr, planned time.Duration, err error) {
	if e, ok := l.plans[src]; ok {
		return e, 0, nil
	}
	q, err := xquery.Parse(src)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	p, _, err := l.st.optimize(q)
	planned = time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	l.plans[src] = p.Expr
	return p.Expr, planned, nil
}

// refreshViews brings the views a leaf query reads up to date, as the
// session does for a consistent read.
func (l *level) refreshViews(ctx context.Context, leaf *xquery.Query) error {
	for _, doc := range leaf.DocRefs() {
		if name, ok := strings.CutPrefix(doc, view.DocPrefix); ok {
			if _, err := l.st.views.RefreshContext(ctx, name); err != nil {
				return err
			}
		}
	}
	return nil
}

// replay drives a workload's first requests through in-process copies of
// the stack.
type replay struct {
	wl *workload
	m  *model

	w, s, c, x *level
	srv        *served
	client     *wire.Client
	sess       *session.Local

	rd     *reader
	writes int // writes applied so far, to every level alike
	reads  int
	// prevWrites is writes as it stood at the previous read: the floor
	// of a snapshot read's staleness (see request.accepts).
	prevWrites int
	closed     bool
}

func newReplay(wl *workload, m *model, seed int64, traced bool) (r *replay, err error) {
	r = &replay{wl: wl, m: m, rd: &reader{wl: wl, m: m}}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.w, err = newLevel(wl, m, seed); err != nil {
		return nil, err
	}
	if r.srv, err = r.w.st.serve(); err != nil {
		return nil, err
	}
	if r.client, err = wire.Dial(r.srv.addr()); err != nil {
		return nil, err
	}
	if !traced {
		return r, nil
	}
	for _, l := range []**level{&r.s, &r.c, &r.x} {
		if *l, err = newLevel(wl, m, seed); err != nil {
			return nil, err
		}
	}
	if r.sess, err = r.s.st.session(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *replay) close() {
	if r.closed {
		return
	}
	r.closed = true
	if r.client != nil {
		_ = r.client.Close()
	}
	if r.srv != nil {
		r.srv.close()
	}
	if r.sess != nil {
		_ = r.sess.Close()
	}
	for _, l := range []*level{r.w, r.s, r.c, r.x} {
		if l != nil {
			l.st.close()
		}
	}
}

// step replays the next request (a write first, when one is due). With a
// tracer it replays at every level and records spans; without, only the
// outermost call runs. It returns the time of the outermost call.
func (r *replay) step(ctx context.Context, tr *tracer, tl *tally) (time.Duration, error) {
	var top time.Duration
	if r.wl.replayWriteEvery > 0 && r.reads%r.wl.replayWriteEvery == 0 {
		d, err := r.write(ctx, tr, tl)
		if err != nil {
			return 0, err
		}
		top += d
	}
	d, err := r.read(ctx, tr, tl)
	return top + d, err
}

func (r *replay) write(ctx context.Context, tr *tracer, tl *tally) (time.Duration, error) {
	j := r.writes
	r.writes++
	stmt := writeStatement(r.m.items[r.m.pool[j%len(r.m.pool)]].id, r.m.writePrice(j))
	tl.attempted.Add(1)
	start := time.Now()
	n, err := r.client.Exec(ctx, stmt)
	top := time.Since(start)
	if err != nil || n != 1 {
		tl.fail("replay: %s: touched %d, err %v", stmt, n, err)
		return top, err
	}
	if tr == nil {
		return top, nil
	}
	req := r.reads + r.writes
	root := tr.add(req, 0, "wire", "write", start, top)
	start = time.Now()
	if _, err := r.sess.Exec(ctx, stmt); err != nil {
		return top, err
	}
	sid := tr.add(req, root, "session", "write", start, time.Since(start))
	start = time.Now()
	if err := r.c.st.applyWrite(stmt); err != nil {
		return top, err
	}
	tr.add(req, sid, "peer", "write", start, time.Since(start))
	return top, r.x.st.applyWrite(stmt)
}

func (r *replay) read(ctx context.Context, tr *tracer, tl *tally) (time.Duration, error) {
	req := r.rd.next()
	r.reads++
	var opts []session.Option
	if req.snapshot {
		opts = append(opts, session.WithSnapshotIsolation())
	}
	tl.attempted.Add(1)
	start := time.Now()
	rows, err := drain(r.client.Query(ctx, req.src, opts...))
	top := time.Since(start)
	if err != nil {
		tl.fail("replay: %s: %v", req.src, err)
		return top, err
	}
	var got answer
	for _, row := range rows {
		got.add(rowDigest(row))
	}
	if ok, _ := req.accepts(r.m, got, r.prevWrites, r.writes, r.writes); !ok {
		tl.fail("replay: %s: wrong answer (%d rows, after %d writes)", req.src, got.rows, r.writes)
	}
	r.prevWrites = r.writes
	if tr == nil {
		return top, nil
	}
	// The inner levels, each on its own copy of the system. They run in
	// an order that changes with every request: whatever follows the wire
	// exchange finds the collector's work done for it while the client
	// waited, and would come out faster than the levels around it if it
	// were always the same one.
	var sess, ser, parse, opt, refresh, eval, xq lap
	levels := [3]func() error{
		// Inside the wire exchange: the session's work, and the rows'
		// serialisation (peer side) and parsing (client side).
		func() error {
			sess.begin()
			rows, err := drain(r.sess.Query(ctx, req.src, append(opts, session.WithConsistentView())...))
			sess.end()
			if err != nil {
				return err
			}
			lines := make([]string, len(rows))
			ser.begin()
			for i, row := range rows {
				lines[i] = xmltree.Serialize(xmltree.E("x:row", row))
			}
			ser.end()
			parse.begin()
			defer parse.end()
			for _, l := range lines {
				if _, err := xmltree.Parse(l); err != nil {
					return err
				}
			}
			return nil
		},
		// Inside the session: plan search on a new shape, view refresh,
		// and the evaluation of the plan.
		func() error {
			opt.begin()
			plan, planned, err := r.c.plan(req.src)
			if err != nil {
				return err
			}
			opt.d = planned
			leaf, _, err := r.c.st.leafQuery(plan)
			if err != nil {
				return err
			}
			refresh.begin()
			err = r.c.refreshViews(ctx, leaf)
			refresh.end()
			if err != nil {
				return err
			}
			eval.begin()
			_, err = r.c.st.evalPlan(ctx, plan)
			eval.end()
			return err
		},
		// Inside the evaluation: the query evaluator on the leaf query,
		// at the peer that holds its document.
		func() error {
			plan, _, err := r.x.plan(req.src)
			if err != nil {
				return err
			}
			leaf, at, err := r.x.st.leafQuery(plan)
			if err != nil {
				return err
			}
			if err := r.x.refreshViews(ctx, leaf); err != nil {
				return err
			}
			xq.begin()
			_, err = drainCursor(ctx, leaf, at)
			xq.end()
			return err
		},
	}
	for _, k := range levelOrders[r.reads%len(levelOrders)] {
		if err := levels[k](); err != nil {
			return top, err
		}
	}

	id := r.reads + r.writes
	root := tr.add(id, 0, "wire", "read", start, top)
	sid := tr.add(id, root, "session", "read", sess.start, sess.d)
	tr.add(id, root, "xmltree_serialize", "read", ser.start, ser.d)
	tr.add(id, root, "xmltree_parse", "read", parse.start, parse.d)
	if opt.d > 0 {
		tr.add(id, sid, "opt", "read", opt.start, opt.d)
	}
	if r.wl.view {
		tr.add(id, sid, "view", "read", refresh.start, refresh.d)
	}
	cid := tr.add(id, sid, "core", "read", eval.start, eval.d)
	tr.add(id, cid, "xquery", "read", xq.start, xq.d)
	return top, nil
}

// levelOrders lists every order of the three inner levels.
var levelOrders = [][3]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}, {2, 1, 0}, {1, 0, 2}}

// lap is one timed stretch.
type lap struct {
	start time.Time
	d     time.Duration
}

func (l *lap) begin() { l.start = time.Now() }
func (l *lap) end()   { l.d = time.Since(l.start) }

// warm runs the workload's warm-up requests through every level, untimed.
func (r *replay) warm(ctx context.Context, tl *tally, traced bool) error {
	var tr *tracer
	if traced {
		tr = &tracer{origin: time.Now()} // discarded
	}
	for i := 0; i < r.wl.warmup; i++ {
		if _, err := r.step(ctx, tr, tl); err != nil {
			return err
		}
	}
	return nil
}

// tracedRun replays up to maxTraced requests of the workload with spans,
// then the same requests on a fresh stack without, and writes the spans
// to <outDir>/trace.json.
func tracedRun(wl *workload, m *model, seed int64, budget time.Duration, outFile string, tl *tally) (map[string]float64, error) {
	ctx := context.Background()
	traced, err := newReplay(wl, m, seed, true)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	if err := traced.warm(ctx, tl, true); err != nil {
		return nil, err
	}
	tr := &tracer{origin: time.Now()}
	var tracedTop time.Duration
	n := 0
	// Three quarters of the budget for the traced replay; the untraced
	// one runs a quarter of the calls per request.
	for deadline := time.Now().Add(budget * 3 / 4); n < maxTraced && (n < 10 || time.Now().Before(deadline)); n++ {
		d, err := traced.step(ctx, tr, tl)
		if err != nil {
			return nil, err
		}
		tracedTop += d
	}
	traced.close()

	plain, err := newReplay(wl, m, seed, false)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	if err := plain.warm(ctx, tl, false); err != nil {
		return nil, err
	}
	var plainTop time.Duration
	for i := 0; i < n; i++ {
		d, err := plain.step(ctx, nil, tl)
		if err != nil {
			return nil, err
		}
		plainTop += d
	}

	share, unattributed := tr.shares()
	out := map[string]float64{
		"trace.unattributed_pct": unattributed,
		"trace.overhead_pct":     100 * float64(tracedTop-plainTop) / float64(plainTop),
		"trace.requests":         float64(n),
	}
	for l, v := range share {
		out["share."+l] = v
	}
	if err := os.MkdirAll(filepath.Dir(outFile), 0o755); err != nil {
		return nil, err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{wl.name, seed, tr.spans})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(outFile, data, 0o644); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return out, nil
}
