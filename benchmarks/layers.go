package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"axml/internal/core"
	"axml/internal/peer"
	"axml/internal/session"
	"axml/internal/wire"
	"axml/internal/xmltree"
	"axml/internal/xpath"
	"axml/internal/xquery"
)

// The layer pass: one goroutine, in-process, the same generated inputs as
// the workloads, each layer's public functions timed directly. Heap
// allocations come from runtime.MemStats deltas around the timed calls.

// timing is one measured function.
type timing struct {
	ns     float64 // median time of one call
	allocs float64 // mean heap allocations per call
}

func (t timing) us() float64 { return t.ns / 1e3 }
func (t timing) ms() float64 { return t.ns / 1e6 }

// minCalls is the least number of timed calls behind a median, whatever
// the time budget says.
const minCalls = 3

// measure times f for about budget. Without prep, calls are batched so
// that one timed batch lasts at least ~50µs and the clock's resolution
// does not matter. With prep, prep runs untimed (and uncounted) before
// every single call of f. A failing call aborts the pass.
func measure(budget time.Duration, prep, f func() error) (timing, error) {
	var ms0, ms1 runtime.MemStats
	var mallocs uint64
	calls := 0
	var perCall []float64
	timed := func(batch int) error {
		if prep != nil {
			if err := prep(); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := f(); err != nil {
				return err
			}
		}
		d := time.Since(start)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		calls += batch
		perCall = append(perCall, float64(d)/float64(batch))
		return nil
	}
	if err := timed(1); err != nil { // also warms caches and lazy state
		return timing{}, err
	}
	batch := 1
	if prep == nil && perCall[0] < 50e3 {
		batch = int(50e3/perCall[0]) + 1
	}
	perCall, mallocs, calls = nil, 0, 0
	deadline := time.Now().Add(budget)
	for len(perCall) < minCalls || time.Now().Before(deadline) {
		if err := timed(batch); err != nil {
			return timing{}, err
		}
	}
	return timing{ns: median(perCall), allocs: float64(mallocs) / float64(calls)}, nil
}

// measureDiff times a and b back to back, prep (optional, untimed) before
// each pair, and returns the median over pairs of a's time minus b's. A
// layer's own cost is what a call through it takes beyond the calls it
// makes; pairing the two keeps drift in the heap and the machine out of
// the difference.
func measureDiff(budget time.Duration, prep, a, b func() error) (float64, error) {
	var diffs []float64
	pair := func() error {
		if prep != nil {
			if err := prep(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := a(); err != nil {
			return err
		}
		t1 := time.Now()
		if err := b(); err != nil {
			return err
		}
		diffs = append(diffs, float64(t1.Sub(t0)-time.Since(t1)))
		return nil
	}
	if err := pair(); err != nil { // warms both sides
		return 0, err
	}
	diffs = nil
	deadline := time.Now().Add(budget)
	for len(diffs) < minCalls || time.Now().Before(deadline) {
		if err := pair(); err != nil {
			return 0, err
		}
	}
	return median(diffs), nil
}

// layerPass measures every layer and returns the metrics by name. total
// is the time budget for the whole pass.
func layerPass(seed int64, total time.Duration) (map[string]float64, error) {
	const timedFunctions = 34
	budget := total / timedFunctions
	ctx := context.Background()
	out := map[string]float64{}
	var firstErr error
	run := func(prep, f func() error) timing {
		if firstErr != nil {
			return timing{}
		}
		t, err := measure(budget, prep, f)
		if err != nil {
			firstErr = err
		}
		return t
	}
	runDiff := func(prep, a, b func() error) float64 {
		if firstErr != nil {
			return 0
		}
		ns, err := measureDiff(2*budget, prep, a, b)
		if err != nil {
			firstErr = err
		}
		return ns
	}

	// Inputs: the 2000-item catalog hosted locally (evaluator, wire
	// streaming), the 200-item catalog remote (delegation, planning) and
	// local (the same evaluation without delegation), and the 2000-item
	// catalog remote with a view (view maintenance, view-aware planning).
	big, err := newStack(2000, false, seed)
	if err != nil {
		return nil, err
	}
	defer big.close()
	remote, err := newStack(200, true, seed)
	if err != nil {
		return nil, err
	}
	defer remote.close()
	local, err := newStack(200, false, seed)
	if err != nil {
		return nil, err
	}
	defer local.close()
	viewed, err := newStack(2000, true, seed)
	if err != nil {
		return nil, err
	}
	defer viewed.close()

	m, doc, err := newModel(2000, seed)
	if err != nil {
		return nil, err
	}
	small, _, err := newModel(200, seed)
	if err != nil {
		return nil, err
	}
	text := xmltree.Serialize(doc)
	kb := float64(len(text)) / 1024

	// xmltree
	t := run(nil, func() error { _, err := xmltree.Parse(text); return err })
	out["xmltree.parse.ns_per_byte"] = t.ns / float64(len(text))
	out["xmltree.parse.allocs_per_kb"] = t.allocs / kb
	t = run(nil, func() error { sinkString = xmltree.Serialize(doc); return nil })
	out["xmltree.serialize.ns_per_byte"] = t.ns / float64(len(text))
	out["xmltree.serialize.allocs_per_kb"] = t.allocs / kb
	t = run(nil, func() error { sinkNode = xmltree.DeepCopy(doc); return nil })
	out["xmltree.deepcopy.ns_per_node"] = t.ns / float64(doc.NodeCount())

	// xpath
	const path = `item[price < 500]/name`
	t = run(nil, func() error { _, err := xpath.Compile(path); return err })
	out["xpath.compile.us_per_op"] = t.us()
	compiled, err := xpath.Compile(path)
	if err != nil {
		return nil, err
	}
	t = run(nil, func() error { _, err := compiled.Select(doc); return err })
	out["xpath.select.us_per_op"] = t.us()
	out["xpath.select.allocs_per_op"] = t.allocs

	// xquery
	bulkSrc := selection(m.threshold(bulkRows), "$i")
	t = run(nil, func() error { _, err := xquery.Parse(bulkSrc); return err })
	out["xquery.parse.us_per_op"] = t.us()
	bulk := xquery.MustParse(bulkSrc)
	bulkRows, err := drainCursor(ctx, bulk, big.store)
	if err != nil {
		return nil, err
	}
	t = run(nil, func() error { _, err := drainCursor(ctx, bulk, big.store); return err })
	out["xquery.cursor.us_per_row"] = t.us() / float64(bulkRows)
	out["xquery.cursor.allocs_per_row"] = t.allocs / float64(bulkRows)
	lookup := xquery.MustParse(fmt.Sprintf(
		`for $i in doc("catalog")/item where $i/@id = "%s" return $i/name`, m.items[m.hot[hotKeys/2]].id))
	t = run(nil, func() error { _, err := drainCursor(ctx, lookup, big.store); return err })
	out["xquery.cursor.scan_ns_per_item"] = t.ns / 2000
	t = run(nil, func() error {
		cur, err := bulk.EvalCursor(ctx, &xquery.Env{Resolve: big.store.Resolver()})
		if err != nil {
			return err
		}
		defer cur.Close()
		_, err = cur.Next()
		return err
	})
	out["xquery.cursor.first_row_us"] = t.us()

	// One committed price flip per call, alternating across the view's
	// boundary, for everything that measures work caused by a write.
	flipped := m.items[m.pool[0]].id
	flips := 0
	flip := func(st *stack) func() error {
		return func() error {
			flips++
			price := priceIn
			if flips%2 == 0 {
				price = priceOut
			}
			return st.applyWrite(writeStatement(flipped, price))
		}
	}
	viewQ := xquery.MustParse(viewQuery(m))
	inc, ok := xquery.NewDeltaFor(viewQ, nil)
	if !ok {
		return nil, fmt.Errorf("view query does not incrementalise")
	}
	delta := func() error {
		h := big.store.Snapshot()
		defer h.Release()
		_, err := inc.DeltaEventsWith(&xquery.Env{Resolve: h.Resolver()})
		return err
	}
	if err := delta(); err != nil { // the initial derivation, not a delta
		return nil, err
	}
	t = run(flip(big), delta)
	out["xquery.delta.us_per_op"] = t.us()

	// opt + rewrite: the search a plan-cache miss pays, on the
	// plan_churn shape; then with a view and a 2000-item remote document.
	churn := xquery.MustParse(selection(small.threshold(churnRows), "<h0>{$i/name}</h0>"))
	explored := 0
	t = run(nil, func() error {
		_, n, err := remote.optimize(churn)
		explored = n
		return err
	})
	out["opt.optimize.ms_per_op"] = t.ms()
	out["opt.optimize.allocs_per_op"] = t.allocs
	out["opt.plans_explored_per_op"] = float64(explored)
	if err := viewed.views.Define(viewName, viewQuery(m), viewed.store.ID); err != nil {
		return nil, err
	}
	subsumed := xquery.MustParse(selection(m.threshold(viewRows/4), "$i"))
	t = run(nil, func() error { _, _, err := viewed.optimize(subsumed); return err })
	out["opt.optimize_view.ms_per_op"] = t.ms()

	// core + netsim: one cached plan evaluated where the data is, and
	// delegated to where the data is.
	hotSrc := selection(small.threshold(hotRows+6), "$i")
	hot := xquery.MustParse(hotSrc)
	localPlan, _, err := local.optimize(hot)
	if err != nil {
		return nil, err
	}
	t = run(nil, func() error { _, err := local.evalPlan(ctx, localPlan.Expr); return err })
	out["core.eval_local.us_per_op"] = t.us()
	hotPlan, _, err := remote.optimize(hot)
	if err != nil {
		return nil, err
	}
	evals := 0
	msgs0, bytes0, _ := remote.sys.Net.Totals()
	t = run(nil, func() error { evals++; _, err := remote.evalPlan(ctx, hotPlan.Expr); return err })
	msgs1, bytes1, _ := remote.sys.Net.Totals()
	out["core.eval_delegated.us_per_op"] = t.us()
	if evals > 0 {
		out["netsim.bytes_per_op"] = float64(bytes1-bytes0) / float64(evals)
		out["netsim.messages_per_op"] = float64(msgs1-msgs0) / float64(evals)
	}
	t = run(nil, func() error {
		_, err := core.ParseExprBytes(core.SerializeExpr(hotPlan.Expr))
		return err
	})
	out["core.exprser.us_per_op"] = t.us()

	// session: what the pipeline adds around the evaluation on a
	// plan-cache hit, and what a miss costs.
	sess, err := remote.session()
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	query := func(src *string) func() error {
		return func() error {
			_, err := drain(sess.Query(ctx, *src, session.WithConsistentView()))
			return err
		}
	}
	out["session.query_hit.us_per_op"] = runDiff(nil, query(&hotSrc),
		func() error { _, err := remote.evalPlan(ctx, hotPlan.Expr); return err }) / 1e3
	// A miss is timed whole — parse, search, cache insert, evaluation:
	// what the session adds around opt.optimize is a small difference of
	// two large, noisy numbers and did not repeat even in sign.
	shape := 0
	t = run(nil, func() error {
		shape++
		src := selection(small.threshold(churnRows), fmt.Sprintf("<m%d>{$i/name}</m%d>", shape, shape))
		return query(&src)()
	})
	out["session.query_miss.us_per_op"] = t.us()

	// view: define, incremental refresh after one write, full refresh.
	defined := 0
	t = run(func() error {
		if defined == 0 {
			return nil
		}
		return viewed.views.Drop(fmt.Sprintf("v%d", defined))
	}, func() error {
		defined++
		return viewed.views.Define(fmt.Sprintf("v%d", defined), viewQuery(m), viewed.store.ID)
	})
	out["view.define.ms_per_op"] = t.ms()
	if err := viewed.views.Drop(fmt.Sprintf("v%d", defined)); err != nil && firstErr == nil {
		return nil, err
	}
	if _, err := viewed.views.Refresh(viewName); err != nil {
		return nil, err
	}
	t = run(flip(viewed), func() error { _, err := viewed.views.RefreshContext(ctx, viewName); return err })
	out["view.refresh_delta.us_per_op"] = t.us()
	t = run(nil, func() error { _, err := viewed.views.RefreshFull(viewName); return err })
	out["view.refresh_full.ms_per_op"] = t.ms()

	// peer: install, one copy-on-write commit, one snapshot pin.
	scratch := peer.New("scratch")
	var fresh *xmltree.Node
	installed := false
	t = run(func() error {
		if installed {
			if err := scratch.RemoveDocument("bench"); err != nil {
				return err
			}
		}
		var err error
		fresh, err = xmltree.Parse(text)
		return err
	}, func() error { installed = true; return scratch.InstallDocument("bench", fresh) })
	out["peer.install.ms_per_op"] = t.ms()
	priceOf := xquery.MustParse(fmt.Sprintf(`doc("catalog")/item[@id="%s"]/price`, flipped))
	var target xmltree.NodeID
	t = run(func() error {
		ids, err := big.store.SelectIDs(priceOf)
		if err != nil || len(ids) != 1 {
			return fmt.Errorf("selecting the price node: %d ids, %v", len(ids), err)
		}
		target = ids[0]
		return nil
	}, func() error {
		return big.store.ReplaceChildByID(0, target, xmltree.E("price", xmltree.T("5")))
	})
	out["peer.commit.us_per_op"] = t.us()
	out["peer.commit.allocs_per_op"] = t.allocs
	t = run(nil, func() error { big.store.Snapshot().Release(); return nil })
	out["peer.snapshot_pin.ns_per_op"] = t.ns

	// wire: an in-process server on loopback. The stream's own cost per
	// row is what is left of a streamed reply after the session's work
	// and the serialisation and parsing of the rows are taken out.
	bigSrv, err := big.serve()
	if err != nil {
		return nil, err
	}
	defer bigSrv.close()
	t = run(nil, func() error {
		c, err := wire.Dial(bigSrv.addr())
		if err != nil {
			return err
		}
		return c.Close()
	})
	out["wire.dial.us_per_op"] = t.us()
	client, err := wire.Dial(bigSrv.addr())
	if err != nil {
		return nil, err
	}
	defer client.Close()
	t = run(nil, func() error { _, _, err := client.List(ctx); return err })
	out["wire.roundtrip.us_per_op"] = t.us()
	t = run(nil, func() error { _, err := client.Stats(ctx); return err })
	out["obs.stats.us_per_op"] = t.us()
	bigSess, err := big.session()
	if err != nil {
		return nil, err
	}
	defer bigSess.Close()
	streamed := 0
	streamNs := runDiff(nil, func() error {
		rows, err := drain(client.Query(ctx, bulkSrc))
		streamed = len(rows)
		return err
	}, func() error {
		rows, err := drain(bigSess.Query(ctx, bulkSrc, session.WithConsistentView()))
		for _, r := range rows {
			if _, err := xmltree.Parse(xmltree.Serialize(xmltree.E("x:row", r))); err != nil {
				return err
			}
		}
		return err
	})
	if streamed > 0 {
		out["wire.stream.us_per_row"] = streamNs / 1e3 / float64(streamed)
	}

	// obs: what asking for a trace costs one delegated query.
	remoteSrv, err := remote.serve()
	if err != nil {
		return nil, err
	}
	defer remoteSrv.close()
	rclient, err := wire.Dial(remoteSrv.addr())
	if err != nil {
		return nil, err
	}
	defer rclient.Close()
	out["obs.trace.overhead_us_per_op"] = runDiff(nil, func() error {
		_, err := drain(rclient.Query(ctx, hotSrc, session.WithTraceID("ledger")))
		return err
	}, func() error { _, err := drain(rclient.Query(ctx, hotSrc)); return err }) / 1e3

	return out, firstErr
}

// Sinks keep the compiler from discarding calls whose result is unused.
var (
	sinkString string
	sinkNode   *xmltree.Node
)
