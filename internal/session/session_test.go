package session

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/service"
	"axml/internal/view"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// testSystem builds client+data peers with a small catalog at data.
func testSystem(t *testing.T) (*core.System, *view.Manager) {
	t.Helper()
	net := netsim.New()
	sys := core.NewSystem(net)
	sys.MustAddPeer("client")
	data := sys.MustAddPeer("data")
	cat := xmltree.E("catalog")
	for i := 0; i < 40; i++ {
		price := "500"
		if i%10 == 0 {
			price = "5"
		}
		cat.AppendChild(xmltree.MustParse(fmt.Sprintf(
			`<item><name>thing-%d</name><price>%s</price></item>`, i, price)))
	}
	if err := data.InstallDocument("catalog", cat); err != nil {
		t.Fatal(err)
	}
	views := view.NewManager(sys)
	t.Cleanup(views.Close)
	t.Cleanup(sys.Close)
	return sys, views
}

// docRoot reads the named document's newest root through a snapshot.
func docRoot(t testing.TB, p *peer.Peer, name string) *xmltree.Node {
	t.Helper()
	h := p.Snapshot()
	defer h.Release()
	root, err := h.Root(name)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func newSession(t *testing.T, sys *core.System, views *view.Manager) *Local {
	t.Helper()
	sess, err := NewLocal(sys, views, "client")
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

const selectQ = `for $i in doc("catalog")/item where $i/price < 100 return $i/name`

func TestQueryStreamsRows(t *testing.T) {
	sys, views := testSystem(t)
	sess := newSession(t, sys, views)
	rows, err := sess.Query(context.Background(), selectQ)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		var s string
		if err := rows.Scan(&s); err != nil {
			t.Fatal(err)
		}
		var node *xmltree.Node
		if err := rows.Scan(&node); err != nil {
			t.Fatal(err)
		}
		if node.Label != "name" {
			t.Errorf("row = %s", s)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("streamed %d rows, want 4", n)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRowsAllIterator(t *testing.T) {
	sys, views := testSystem(t)
	sess := newSession(t, sys, views)
	rows, err := sess.Query(context.Background(), selectQ)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for node, err := range rows.All() {
		if err != nil {
			t.Fatal(err)
		}
		if node.Label != "name" {
			t.Errorf("unexpected row %s", xmltree.Serialize(node))
		}
		n++
	}
	if n != 4 {
		t.Errorf("iterated %d rows, want 4", n)
	}
}

func TestPlanCacheHitMissInvalidate(t *testing.T) {
	sys, views := testSystem(t)
	sess := newSession(t, sys, views)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		rows, err := sess.Query(ctx, selectQ)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rows.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	st := planCache(sess)
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("after 3 identical queries: %+v, want 1 miss / 2 hits", st)
	}

	// Conjunct order and whitespace do not fragment the cache.
	variant := "for $i in doc(\"catalog\")/item\n  where $i/price < 100\n  return $i/name"
	if rows, err := sess.Query(ctx, variant); err != nil {
		t.Fatal(err)
	} else {
		_, _ = rows.Collect()
	}
	if st = planCache(sess); st.Hits != 3 {
		t.Errorf("reformatted query should hit the cache: %+v", st)
	}

	// DefineView bumps the catalog generation: the cached plan is
	// stale (it misses the new view) and must re-optimize.
	if err := views.Define("cheap",
		`for $i in doc("catalog")/item where $i/price < 100 return $i`, "client"); err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(ctx, selectQ)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	st = planCache(sess)
	if st.Invalidations != 1 || st.Misses != 2 {
		t.Errorf("DefineView should invalidate the cached plan: %+v", st)
	}
	if len(forest) != 4 {
		t.Errorf("re-planned query returned %d rows", len(forest))
	}
}

// cacheCounts are a session's plan-cache counters.
type cacheCounts struct{ Hits, Misses, Invalidations, Evictions int64 }

// planCache reads the plan-cache counters from the session's registry.
func planCache(s *Local) cacheCounts {
	c := s.metrics.Snapshot().Counters
	return cacheCounts{
		Hits:          c["session.plan_cache.hits"],
		Misses:        c["session.plan_cache.misses"],
		Invalidations: c["session.plan_cache.invalidations"],
		Evictions:     c["session.plan_cache.evictions"],
	}
}

// cachedPlans reports how many plans the session caches.
func cachedPlans(s *Local) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.plans)
}

func TestPreparedStatementSkipsSearch(t *testing.T) {
	sys, views := testSystem(t)
	sess := newSession(t, sys, views)
	ctx := context.Background()
	stmt, err := sess.Prepare(ctx, selectQ)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if st := planCache(sess); st.Misses != 1 {
		t.Fatalf("Prepare should optimize eagerly: %+v", st)
	}
	for i := 0; i < 5; i++ {
		rows, err := stmt.Query(ctx)
		if err != nil {
			t.Fatal(err)
		}
		forest, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(forest) != 4 {
			t.Errorf("run %d: %d rows", i, len(forest))
		}
	}
	st := planCache(sess)
	if st.Misses != 1 || st.Hits != 5 {
		t.Errorf("prepared runs should skip the optimizer: %+v", st)
	}
	if rate := float64(st.Hits) / float64(st.Hits+st.Misses); rate < 0.8 {
		t.Errorf("hit rate = %.2f", rate)
	}
}

// TestPlanningOncePerShape: four query shapes, each issued ten times.
// Optimizing every call — a fresh session per call, counting into one
// registry — runs the search 40 times; the plan cache and prepared
// statements run it once per shape, and all three answer with the same
// rows.
func TestPlanningOncePerShape(t *testing.T) {
	const shapes, repeats = 4, 10
	src := func(i int) string {
		return fmt.Sprintf(`for $i in doc("catalog")/item where $i/price < %d return $i/name`, 10+i*200)
	}
	ctx := context.Background()
	var rowsPerMode []int
	for _, mode := range []struct {
		name     string
		searches int64
	}{{"per-query", shapes * repeats}, {"plan-cache", shapes}, {"prepared", shapes}} {
		sys, views := testSystem(t)
		sess := newSession(t, sys, views)
		stmts := make([]*Stmt, shapes)
		for i := range stmts {
			if mode.name == "prepared" {
				stmt, err := sess.Prepare(ctx, src(i))
				if err != nil {
					t.Fatal(err)
				}
				stmts[i] = stmt
			}
		}
		n := 0
		for r := 0; r < repeats; r++ {
			for i := 0; i < shapes; i++ {
				var rows *Rows
				var err error
				switch mode.name {
				case "per-query":
					var fresh *Local
					if fresh, err = NewLocal(sys, views, "client", WithMetrics(sess.metrics)); err == nil {
						rows, err = fresh.Query(ctx, src(i))
					}
				case "plan-cache":
					rows, err = sess.Query(ctx, src(i))
				default:
					rows, err = stmts[i].Query(ctx)
				}
				if err != nil {
					t.Fatal(err)
				}
				forest, err := rows.Collect()
				if err != nil {
					t.Fatal(err)
				}
				n += len(forest)
			}
		}
		if got := planCache(sess).Misses; got != mode.searches {
			t.Errorf("%s: %d optimizer searches, want %d", mode.name, got, mode.searches)
		}
		rowsPerMode = append(rowsPerMode, n)
	}
	if rowsPerMode[1] != rowsPerMode[0] || rowsPerMode[2] != rowsPerMode[0] || rowsPerMode[0] == 0 {
		t.Errorf("rows per mode (per-query, plan-cache, prepared) = %v", rowsPerMode)
	}
}

func TestExpiredContextNoRemoteShips(t *testing.T) {
	sys, views := testSystem(t)
	sess := newSession(t, sys, views)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the call
	rows, err := sess.Query(ctx, selectQ)
	if err == nil {
		_, err = rows.Collect()
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("expired context: err = %v, want ErrCanceled", err)
	}
	// No remote work started: the data peer saw no traffic.
	st := sys.Net.Stats()
	if st.Messages != 0 {
		t.Errorf("expired context still shipped %d message(s)", st.Messages)
	}
}

// TestCancelMidEvalDelegated cancels the context from inside the plan:
// the first argument of a query is a local builtin service call that
// cancels; the second delegates eval@data. The delegation must not
// happen.
func TestCancelMidEvalDelegated(t *testing.T) {
	sys, _ := testSystem(t)
	client, _ := sys.Peer("client")
	ctx, cancel := context.WithCancel(context.Background())
	if err := client.RegisterService(&service.Service{
		Name: "trip", Provider: "client",
		Builtin: func([][]*xmltree.Node) ([]*xmltree.Node, error) {
			cancel()
			return []*xmltree.Node{xmltree.E("tripped")}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Naive plan, evaluated left to right: trip() cancels, then the
	// delegated eval@data must refuse to ship.
	e := &core.Query{
		Q:  mustQuery(t, `param $a, $b; <r/>`),
		At: "client",
		Args: []core.Expr{
			&core.ServiceCall{Provider: "client", Service: "trip"},
			&core.EvalAt{At: "data", E: &core.Query{
				Q: mustQuery(t, selectQ), At: "data"}},
		},
	}
	_, err := sys.EvalContext(ctx, "client", e)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("mid-plan cancel: err = %v, want ErrCanceled", err)
	}
	st := sys.Net.Stats()
	if link, ok := st.PerLink["client"]; ok {
		if ls, ok := link["data"]; ok && ls.Messages > 0 {
			t.Errorf("delegation to data completed despite cancel: %+v", ls)
		}
	}
}

// TestCancelMidTransferSlowLink uses realtime mode: the transfer of
// the delegated evaluation takes real wall-clock time and the deadline
// expires while the bytes are in flight.
func TestCancelMidTransferSlowLink(t *testing.T) {
	sys, views := testSystem(t)
	// ~1 virtual ms sleeps 1 real ms; the catalog reply is thousands of
	// bytes over a 1 byte/ms link — far beyond the 30ms deadline.
	sys.Net.SetLinkBoth("client", "data", netsim.Link{LatencyMs: 5, BytesPerMs: 1})
	sys.Net.SetRealtime(1)
	sess := newSession(t, sys, views)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	rows, err := sess.Query(ctx, selectQ, WithNoOptimize())
	if err == nil {
		_, err = rows.Collect()
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("slow link: err = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v — deadline did not interrupt the transfer", elapsed)
	}
}

func TestTypedErrors(t *testing.T) {
	sys, views := testSystem(t)
	sess := newSession(t, sys, views)
	ctx := context.Background()

	_, err := sess.Query(ctx, `for $i in doc("ghost")/x return $i`)
	if !errors.Is(err, ErrNoSuchDoc) {
		t.Errorf("missing doc: %v, want ErrNoSuchDoc", err)
	}
	if _, err = sess.Query(ctx, `this is ! not a query`); !errors.Is(err, ErrBadQuery) {
		t.Errorf("parse failure: %v, want ErrBadQuery", err)
	}
	sys.Net.SetDown("data", true)
	_, err = sess.Query(ctx, selectQ, WithNoOptimize())
	if !errors.Is(err, ErrPeerDown) {
		t.Errorf("down peer: %v, want ErrPeerDown", err)
	}
	sys.Net.SetDown("data", false)
}

func TestWithTimeoutOption(t *testing.T) {
	sys, views := testSystem(t)
	sys.Net.SetLinkBoth("client", "data", netsim.Link{LatencyMs: 5, BytesPerMs: 1})
	sys.Net.SetRealtime(1)
	sess := newSession(t, sys, views)
	rows, err := sess.Query(context.Background(), selectQ, WithNoOptimize(), WithTimeout(30*time.Millisecond))
	if err == nil {
		_, err = rows.Collect()
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("WithTimeout: err = %v, want ErrCanceled", err)
	}
}

func TestExecUpdateStatements(t *testing.T) {
	sys, views := testSystem(t)
	data, _ := sys.Peer("data")
	// Exec applies to documents hosted at the session peer.
	sess, err := NewLocal(sys, views, "data")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n, err := sess.Exec(ctx, `delete doc("catalog")/item[price > 100]`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 36 {
		t.Errorf("deleted %d, want 36", n)
	}
	n, err = sess.Exec(ctx, `replace doc("catalog")/item[price < 100] with <item><name>x</name><price>1</price></item>`)
	if err != nil || n != 4 {
		t.Fatalf("replace = %d, %v", n, err)
	}
	if got := len(docRoot(t, data, "catalog").Children); got != 4 {
		t.Errorf("catalog has %d items", got)
	}
	// Query statements run through the pipeline, results discarded.
	n, err = sess.Exec(ctx, `doc("catalog")/item/name`)
	if err != nil || n != 4 {
		t.Errorf("query exec = %d, %v", n, err)
	}
	// Malformed update statements are bad queries, not silent queries.
	if _, err := sess.Exec(ctx, `replace doc("catalog")/item`); !errors.Is(err, ErrBadQuery) {
		t.Errorf("replace without with: %v", err)
	}
}

// TestExecLocationTransparent: an update issued from a session whose
// peer does not host the document applies at the hosting peer, exactly
// as Query is location-transparent (the README quick-start scenario).
func TestExecLocationTransparent(t *testing.T) {
	sys, views := testSystem(t)
	sess := newSession(t, sys, views) // at "client"; catalog lives at "data"
	n, err := sess.Exec(context.Background(), `delete doc("catalog")/item[price > 100]`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 36 {
		t.Errorf("deleted %d, want 36", n)
	}
	data, _ := sys.Peer("data")
	if len(docRoot(t, data, "catalog").ChildElementsByLabel("item")) != 4 {
		t.Errorf("update did not reach the hosting peer")
	}
	if _, err := sess.Exec(context.Background(), `delete doc("ghost")/x`); !errors.Is(err, ErrNoSuchDoc) {
		t.Errorf("unhosted doc: %v, want ErrNoSuchDoc", err)
	}
}

// TestParseReplaceWithKeywordInLiteral: the " with " separator may
// also appear inside a query string literal; the query ends where its
// grammar does, not at the first " with ".
func TestParseReplaceWithKeywordInLiteral(t *testing.T) {
	upd, ok, err := ParseUpdate(
		`replace doc("d")/item[note = "born with luck"] with <item><note>plain</note></item>`)
	if !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if upd.Kind != "replace" || upd.With.Label != "item" {
		t.Errorf("update = %+v", upd)
	}
	if got := upd.Query.String(); !errorsContains(got, "born with luck") {
		t.Errorf("literal mangled: %s", got)
	}
	// An uppercase separator also parses.
	if _, ok, err := ParseUpdate(`replace doc("d")/item WITH <x/>`); !ok || err != nil {
		t.Errorf("uppercase WITH: ok=%v err=%v", ok, err)
	}
}

// TestParseReplaceWithKeywordInPayload: the query is parsed once and
// the XML after its with is the payload whole, " with " in it or not,
// whatever whitespace sits around the keyword. The benchmark's writer
// statement is one of the rows.
func TestParseReplaceWithKeywordInPayload(t *testing.T) {
	for _, c := range []struct{ src, query, with string }{
		{`replace doc("d")/item with <note>born with luck</note>`,
			`doc("d")/item`, `<note>born with luck</note>`},
		{`replace doc("d")/item[note = "a with b"] with <n a=" with "> with </n>`,
			`doc("d")/item[(note = "a with b")]`, `<n a=" with "> with </n>`},
		{"replace for $i in doc(\"d\")/item return $i/with\nwith\t<x/>",
			`for $i in doc("d")/item return $i/with`, `<x/>`},
		{`replace doc("catalog")/item[@id="17"]/price with <price>42</price>`,
			`doc("catalog")/item[(@id = "17")]/price`, `<price>42</price>`},
		{"replace\tdoc(\"d\")/item with <x/>", `doc("d")/item`, `<x/>`},
		{"replace\ndoc(\"d\")/item with <x/>", `doc("d")/item`, `<x/>`},
		{`replace (doc("d")/item) with <x/>`, `doc("d")/item`, `<x/>`},
		{`replace(doc("d")/a | doc("d")/b)with <x/>`, `doc("d")/a | doc("d")/b`, `<x/>`},
	} {
		upd, ok, err := ParseUpdate(c.src)
		if !ok || err != nil {
			t.Errorf("%s: ok=%v err=%v", c.src, ok, err)
			continue
		}
		if got := upd.Query.String(); got != c.query {
			t.Errorf("%s: query %s, want %s", c.src, got, c.query)
		}
		if got := xmltree.Serialize(upd.With); got != c.with {
			t.Errorf("%s: payload %s, want %s", c.src, got, c.with)
		}
	}
	for _, src := range []string{
		`replace doc("d")/item`,
		`replace doc("d")/item with`,
		`replace doc("d")/item within <x/>`,
		`replace doc("d")/item[ with <x/>`,
		`replace doc("d")/item with <x>`,
	} {
		if _, ok, err := ParseUpdate(src); !ok || !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: ok=%v err=%v, want ErrBadQuery", src, ok, err)
		}
	}
}

// TestUpdateKeywordBeforeAnySpace: the update keyword is a token of
// the one lexer, so a tab or a line break after it reads as a space
// does; and a target may start with a bracket, as in the W3C update
// grammar, since no function delete or replace exists for the text to
// be a call of.
func TestUpdateKeywordBeforeAnySpace(t *testing.T) {
	for _, c := range []struct {
		src string
		n   int
	}{
		{`delete doc("catalog")/item`, 40},
		{"delete\tdoc(\"catalog\")/item", 40},
		{"delete\ndoc(\"catalog\")/item", 40},
		{`delete (doc("catalog")/item[1] | doc("catalog")/item[2])`, 2},
		{`delete(doc("catalog")/item[name = "thing-3"])`, 1},
		{`replace (doc("catalog")/item[1]/price) with <price>6</price>`, 1},
	} {
		sys, views := testSystem(t)
		sess := newSession(t, sys, views)
		if n, err := sess.Exec(context.Background(), c.src); err != nil || n != c.n {
			t.Errorf("%q: %d, %v; want %d", c.src, n, err, c.n)
		}
	}
}

func errorsContains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

func TestConsistentViewOption(t *testing.T) {
	sys, views := testSystem(t)
	if err := views.Define("cheap",
		`for $i in doc("catalog")/item where $i/price < 100 return $i`, "client"); err != nil {
		t.Fatal(err)
	}
	sess := newSession(t, sys, views)
	ctx := context.Background()
	rows, err := sess.Query(ctx, selectQ)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := rows.Collect()

	data, _ := sys.Peer("data")
	if err := data.AddChild(docRoot(t, data, "catalog").ID,
		xmltree.MustParse(`<item><name>late</name><price>2</price></item>`)); err != nil {
		t.Fatal(err)
	}
	rows, err = sess.Query(ctx, selectQ, WithConsistentView())
	if err != nil {
		t.Fatal(err)
	}
	after, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+1 {
		t.Errorf("consistent read missed the update: %d vs %d rows", len(after), len(before))
	}
}

func TestSessionClose(t *testing.T) {
	sys, views := testSystem(t)
	sess := newSession(t, sys, views)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(context.Background(), selectQ); !errors.Is(err, ErrClosed) {
		t.Errorf("query after close: %v", err)
	}
}

func mustQuery(t *testing.T, src string) *xquery.Query {
	t.Helper()
	q, err := xquery.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestShippedQueryMeansWhatWasParsed runs a query whose path starts
// from a union over a document at another peer. The optimised plan
// ships the query there as text, so that text must parse back to the
// query: its answer is the one evaluated without optimisation, and it
// does not share a plan-cache key with the text that drops the union's
// parentheses.
func TestShippedQueryMeansWhatWasParsed(t *testing.T) {
	sys, views := testSystem(t)
	data, _ := sys.Peer("data")
	if err := data.InstallDocument("d", xmltree.MustParse(`<r><a><c>ac</c></a><b><c>bc</c></b></r>`)); err != nil {
		t.Fatal(err)
	}
	sess := newSession(t, sys, views)
	answer := func(src string, opts ...Option) string {
		t.Helper()
		rows, err := sess.Query(context.Background(), src, opts...)
		if err != nil {
			t.Fatal(err)
		}
		forest, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(forest))
		for i, n := range forest {
			out[i] = xmltree.Serialize(n)
		}
		return strings.Join(out, " ")
	}
	const (
		src  = `for $x in doc("d") return ($x/a | $x/b)/c`
		twin = `for $x in doc("d") return $x/a | $x/b/c`
	)
	want := answer(src, WithNoOptimize())
	if want != "<c>ac</c> <c>bc</c>" {
		t.Fatalf("unoptimised answer %s", want)
	}
	if got := answer(src); got != want {
		t.Errorf("optimised answer %s, want %s", got, want)
	}
	for _, pair := range [][2]string{
		{src, twin},
		{`count((doc("d")/a | doc("d")/b)/c)`, `count(doc("d")/a | doc("d")/b/c)`},
		{`(-$x)/c`, `-$x/c`},
	} {
		a, b := view.QueryKey(xquery.MustParse(pair[0])), view.QueryKey(xquery.MustParse(pair[1]))
		if a == b {
			t.Errorf("%s and %s share the key %s", pair[0], pair[1], a)
		}
	}
}
