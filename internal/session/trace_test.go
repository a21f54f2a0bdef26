package session

import (
	"context"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/obs"
	"axml/internal/view"
	"axml/internal/xmltree"
)

// traceSystem builds a client peer and a data peer holding "catalog",
// with the catalog placed remotely so queries delegate.
func traceSystem(t *testing.T) (*core.System, *view.Manager) {
	t.Helper()
	sys := core.NewSystem(netsim.New())
	sys.MustAddPeer("client")
	data := sys.MustAddPeer("data")
	doc := xmltree.MustParse(`<catalog>
	  <item><name>chair</name><price>30</price></item>
	  <item><name>desk</name><price>120</price></item>
	  <item><name>lamp</name><price>15</price></item>
	</catalog>`)
	if err := data.InstallDocument("catalog", doc); err != nil {
		t.Fatal(err)
	}
	return sys, view.NewManager(sys)
}

// TestQueryTraceTree: a traced session query yields a span tree whose
// root covers parse, plan (with a cache verdict) and the delegated
// evaluation, with row counts on the root and bytes reconciled against
// netsim.
func TestQueryTraceTree(t *testing.T) {
	sys, views := traceSystem(t)
	reg := obs.NewRegistry()
	sess, err := NewLocal(sys, views, "client", WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	const src = `for $i in doc("catalog")/item where $i/price < 100 return $i/name`

	runTraced := func(id, src string) *obs.Trace {
		tr := obs.NewTrace(id)
		ctx := obs.WithTrace(context.Background(), tr)
		rows, err := sess.Query(ctx, src)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		forest, err := rows.Collect()
		if err != nil {
			t.Fatalf("Collect: %v", err)
		}
		if len(forest) != 2 {
			t.Fatalf("rows = %d, want 2", len(forest))
		}
		return tr
	}

	before := sys.Net.Stats()
	tr := runTraced("q1", src)
	after := sys.Net.Stats()

	spans := tr.Spans()
	byPhase := map[string][]obs.Span{}
	for _, sp := range spans {
		byPhase[sp.Phase] = append(byPhase[sp.Phase], sp)
	}
	if len(byPhase["query"]) != 1 {
		t.Fatalf("want one query root span, got %+v", spans)
	}
	root := byPhase["query"][0]
	if root.Parent != 0 {
		t.Errorf("query root has parent %d", root.Parent)
	}
	if !strings.Contains(root.Name, "catalog") {
		t.Errorf("root span name = %q", root.Name)
	}
	if root.Rows != 2 {
		t.Errorf("root rows = %d, want 2", root.Rows)
	}
	if root.WallMs <= 0 {
		t.Errorf("root wall = %v, want > 0 (span must be ended)", root.WallMs)
	}
	for _, phase := range []string{"parse", "plan"} {
		ps := byPhase[phase]
		if len(ps) != 1 || ps[0].Parent != root.ID {
			t.Errorf("%s span missing or misparented: %+v", phase, ps)
		}
	}
	if got := byPhase["plan"][0].Attrs["cache"]; got != "miss" {
		t.Errorf("first plan cache attr = %q, want miss", got)
	}

	// The evaluation delegated client→data: its network spans carry all
	// the bytes this query moved.
	var spanBytes int64
	for _, sp := range spans {
		spanBytes += sp.BytesOut + sp.BytesIn
	}
	if moved := after.Bytes - before.Bytes; spanBytes != moved {
		t.Errorf("span bytes %d != netsim delta %d", spanBytes, moved)
	}
	if spanBytes == 0 {
		t.Error("no bytes attributed — query did not delegate?")
	}

	// Second run: same shape, cache verdict flips to hit.
	tr2 := runTraced("q2", src)
	var plan2 *obs.Span
	for _, sp := range tr2.Spans() {
		if sp.Phase == "plan" {
			cp := sp
			plan2 = &cp
		}
	}
	if plan2 == nil || plan2.Attrs["cache"] != "hit" {
		t.Errorf("second plan span = %+v, want cache=hit", plan2)
	}

	// The registry counts one miss and one hit.
	snap := reg.Snapshot()
	if got := snap.Counters["session.plan_cache.hits"]; got != 1 {
		t.Errorf("registry hits %d, want 1", got)
	}
	if got := snap.Counters["session.plan_cache.misses"]; got != 1 {
		t.Errorf("registry misses %d, want 1", got)
	}
	if got := snap.Counters["session.queries"]; got != 2 {
		t.Errorf("session.queries = %d, want 2", got)
	}
	if h := snap.Histograms["session.query.first_row_ms"]; h.Count != 2 {
		t.Errorf("first_row_ms count = %d, want 2", h.Count)
	}

	// A query written over four lines names its root span in one line:
	// the parsed query's text.
	tr3 := runTraced("q3", `for $i in doc("catalog")/item
		where $i/price < 100
		order by $i/name
		return $i/name`)
	for _, sp := range tr3.Spans() {
		if sp.Phase == "query" && (strings.ContainsAny(sp.Name, "\n\t") || !strings.Contains(sp.Name, "order by")) {
			t.Errorf("four-line query's root span name = %q, want its one-line text", sp.Name)
		}
	}
}

// TestQueryUntracedUnchanged: without a trace the pipeline works as
// before and no spans exist anywhere.
func TestQueryUntracedUnchanged(t *testing.T) {
	sys, views := traceSystem(t)
	sess, err := NewLocal(sys, views, "client")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(context.Background(), `for $i in doc("catalog")/item where $i/price < 100 return $i/name`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	forest, err := rows.Collect()
	if err != nil || len(forest) != 2 {
		t.Fatalf("forest=%d err=%v", len(forest), err)
	}
}

// TestQueryTraceFailure: a bad query still produces a closed root span
// carrying the error.
func TestQueryTraceFailure(t *testing.T) {
	sys, views := traceSystem(t)
	sess, err := NewLocal(sys, views, "client")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("bad")
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := sess.Query(ctx, `for $i in`); err == nil {
		t.Fatal("expected parse error")
	}
	spans := tr.Spans()
	var root *obs.Span
	for _, sp := range spans {
		if sp.Phase == "query" {
			cp := sp
			root = &cp
		}
	}
	if root == nil || root.Err == "" {
		t.Errorf("root span should record the failure: %+v", spans)
	}
}
