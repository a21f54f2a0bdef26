package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"axml/internal/netsim"
	"axml/internal/service"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

func cursorSystem(t *testing.T, items int) *System {
	t.Helper()
	net := netsim.New()
	netsim.Uniform(net, []netsim.PeerID{"client", "data"}, netsim.Link{
		LatencyMs: 5, BytesPerMs: 1000})
	sys := NewSystem(net)
	client := sys.MustAddPeer("client")
	sys.MustAddPeer("data")
	cat := xmltree.E("catalog")
	for i := 0; i < items; i++ {
		cat.AppendChild(xmltree.MustParse(fmt.Sprintf(
			`<item><name>n-%02d</name><price>%d</price></item>`, i, (i*37)%100)))
	}
	if err := client.InstallDocument("catalog", cat); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func drainRows(t *testing.T, c *RowCursor) []*xmltree.Node {
	t.Helper()
	var out []*xmltree.Node
	for {
		n, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if n == nil {
			return out
		}
		out = append(out, n)
	}
}

func mustParseQuery(t *testing.T, src string) *xquery.Query {
	t.Helper()
	q, err := xquery.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestEvalCursorMatchesEval: Eval is the row cursor drained, so a
// streaming consumer and a forest consumer of the same plan must see
// the same rows in the same order and be charged the same completion
// VT — over the query shapes the experiment workloads use (pushdown
// selection, view and session shapes, let, order by, nesting,
// aggregation) and a query that fetches a remote document once per
// row. Where want is set, the rows are also held to it literally: the
// catalog prices item i at 37i mod 100.
func TestEvalCursorMatchesEval(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want []string
	}{
		{src: `for $i in doc("catalog")/item where $i/price < 60 return <r>{$i/name}{$i/price}</r>`},
		{src: `doc("catalog")/item/name`},
		{src: `for $i in doc("catalog")/item where $i/price < 20 return <hit>{$i/name}</hit>`,
			want: []string{
				`<hit><name>n-00</name></hit>`, `<hit><name>n-03</name></hit>`,
				`<hit><name>n-11</name></hit>`, `<hit><name>n-14</name></hit>`,
				`<hit><name>n-19</name></hit>`, `<hit><name>n-22</name></hit>`,
			}},
		{src: `for $i in doc("catalog")/item where $i/price < 50 return <hit>{$i/name}{$i/price}</hit>`},
		{src: `for $i in doc("catalog")/item let $p := $i/price where $p > 80 return <r p="{$p}">{$i/name}</r>`,
			want: []string{
				`<r p="85"><name>n-05</name></r>`, `<r p="96"><name>n-08</name></r>`,
				`<r p="81"><name>n-13</name></r>`, `<r p="92"><name>n-16</name></r>`,
				`<r p="88"><name>n-24</name></r>`, `<r p="99"><name>n-27</name></r>`,
			}},
		{src: `for $i in doc("catalog")/item where $i/price < 10 order by $i/price return $i/name`,
			want: []string{`<name>n-00</name>`, `<name>n-19</name>`, `<name>n-11</name>`}},
		{src: `<all>{for $i in doc("catalog")/item where $i/price < 5 return $i/name}</all>`,
			want: []string{`<all><name>n-00</name><name>n-19</name></all>`}},
		{src: `count(doc("catalog")/item)`, want: []string{`30`}},
		{src: `for $i in doc("catalog")/item return <r>{$i/name}{doc("inner")/x}</r>`},
	} {
		src := tc.src
		system := func() *System {
			sys := cursorSystem(t, 30)
			data, _ := sys.Peer("data")
			if err := data.InstallDocument("inner", xmltree.MustParse(`<inner><x>1</x><x>2</x></inner>`)); err != nil {
				t.Fatal(err)
			}
			return sys
		}
		res, err := system().Eval("client", &Query{Q: mustParseQuery(t, src), At: "client"})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		cur, err := system().EvalCursor("client", &Query{Q: mustParseQuery(t, src), At: "client"})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		rows := drainRows(t, cur)
		if len(rows) == 0 || len(rows) != len(res.Forest) {
			t.Fatalf("%s: cursor rows = %d, Eval = %d", src, len(rows), len(res.Forest))
		}
		if tc.want != nil && len(rows) != len(tc.want) {
			t.Fatalf("%s: %d rows, want %d", src, len(rows), len(tc.want))
		}
		for i := range rows {
			got := xmltree.Serialize(rows[i])
			if got != xmltree.Serialize(res.Forest[i]) {
				t.Errorf("%s: row %d: %s vs %s", src, i, got, xmltree.Serialize(res.Forest[i]))
			}
			if tc.want != nil && got != tc.want[i] {
				t.Errorf("%s: row %d = %s, want %s", src, i, got, tc.want[i])
			}
		}
		if math.Abs(cur.VT()-res.VT) > 1e-9 {
			t.Errorf("%s: cursor VT = %g, Eval VT = %g", src, cur.VT(), res.VT)
		}
	}
}

// TestEvalCursorLocalEvalAtUnwraps: eval@client(q) at client stays on
// the lazy path (no messages for a purely local plan).
func TestEvalCursorLocalEvalAtUnwraps(t *testing.T) {
	sys := cursorSystem(t, 10)
	expr := &EvalAt{At: "client", E: &Query{
		Q: mustParseQuery(t, `for $i in doc("catalog")/item return $i/name`), At: "client"}}
	cur, err := sys.EvalCursor("client", expr)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drainRows(t, cur)); got != 10 {
		t.Fatalf("rows = %d", got)
	}
	if n := sys.Net.Stats().Messages; n != 0 {
		t.Errorf("local plan shipped %d messages", n)
	}
}

// TestEvalCursorRemoteFallback: an expression that must run elsewhere
// ships eagerly and streams the landed forest — identical rows.
func TestEvalCursorRemoteFallback(t *testing.T) {
	sys := cursorSystem(t, 8)
	client, _ := sys.Peer("client")
	data, _ := sys.Peer("data")
	if err := data.InstallDocument("catalog2", xmltree.DeepCopy(docRoot(t, client, "catalog"))); err != nil {
		t.Fatal(err)
	}
	expr := &EvalAt{At: "data", E: &Doc{Name: "catalog2", At: "data"}}
	cur, err := sys.EvalCursor("client", expr)
	if err != nil {
		t.Fatal(err)
	}
	rows := drainRows(t, cur)
	if len(rows) != 1 || rows[0].Label != "catalog" {
		t.Fatalf("rows = %v", rows)
	}
	if sys.Net.Stats().Messages == 0 {
		t.Error("remote fallback should have shipped")
	}
	if cur.VT() <= 0 {
		t.Error("remote fallback should carry a transfer VT")
	}
}

// TestEvalCursorAbandon: Close mid-stream stops the evaluation and
// charges only the yielded rows, so the abandoned VT is below the full
// evaluation's.
func TestEvalCursorAbandon(t *testing.T) {
	src := `for $i in doc("catalog")/item return <r>{$i/name}</r>`
	full := cursorSystem(t, 200)
	res, err := full.Eval("client", &Query{Q: mustParseQuery(t, src), At: "client"})
	if err != nil {
		t.Fatal(err)
	}
	sys := cursorSystem(t, 200)
	cur, err := sys.EvalCursor("client", &Query{Q: mustParseQuery(t, src), At: "client"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if n, err := cur.Next(); n == nil || err != nil {
			t.Fatalf("pull %d: %v %v", i, n, err)
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := cur.Next(); n != nil || err != nil {
		t.Errorf("Next after Close = (%v, %v)", n, err)
	}
	if cur.VT() <= 0 || cur.VT() >= res.VT {
		t.Errorf("abandoned VT = %g, want in (0, %g)", cur.VT(), res.VT)
	}
}

func TestEvalCursorContextCanceled(t *testing.T) {
	sys := cursorSystem(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := sys.EvalCursorContext(ctx, "client", &Query{
		Q: mustParseQuery(t, `for $i in doc("catalog")/item return $i/name`), At: "client"})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if n, err := cur.Next(); n == nil || err != nil {
		t.Fatalf("first pull: %v %v", n, err)
	}
	cancel()
	if _, err := cur.Next(); !errors.Is(err, ErrCanceled) {
		t.Errorf("Next after cancel = %v, want ErrCanceled", err)
	}
	// Opening under a dead context fails up front.
	if _, err := sys.EvalCursorContext(ctx, "client", &Doc{Name: "catalog", At: "client"}); !errors.Is(err, ErrCanceled) {
		t.Errorf("open under dead ctx = %v", err)
	}
}

// TestDeadlineStopsRemoteScan: a deadline set by the caller reaches the
// tuple scan of a plan evaluated at another peer — delegated with
// eval@data, or applied there as a service body. The join examines
// 2,000² candidate tuples and accepts none, seconds of work with no row
// to stop between; under a 50 ms deadline the evaluation must come back
// as ErrCanceled long before that, and the abandoned evaluation must
// leave no epoch pinned at either peer. Its where is a range, which no
// value index narrows: every candidate is examined.
func TestDeadlineStopsRemoteScan(t *testing.T) {
	join := mustParseQuery(t, `for $i in doc("c")/item for $j in doc("c")/item
		where $i/price < 0 and $j/price < 0 return $i`)
	sys := cursorSystem(t, 0)
	client, _ := sys.Peer("client")
	data, _ := sys.Peer("data")
	catalog := workload.Catalog(workload.CatalogSpec{Items: 2000, PriceMax: 1000, Seed: 1})
	if err := data.InstallDocument("c", catalog); err != nil {
		t.Fatal(err)
	}
	if err := data.RegisterService(&service.Service{Name: "join", Provider: "data", Body: join}); err != nil {
		t.Fatal(err)
	}
	for name, plan := range map[string]Expr{
		"eval@data":    &EvalAt{At: "data", E: &Query{Q: join, At: "data"}},
		"service call": &ServiceCall{Provider: "data", Service: "join"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		res, err := sys.EvalContext(ctx, "client", plan)
		took := time.Since(start)
		cancel()
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: result %v, error %v; want ErrCanceled wrapping the deadline", name, res, err)
		}
		if took > time.Second {
			t.Errorf("%s: came back after %v, want well under the scan's run time", name, took)
		}
		if c, d := client.PinnedEpochs(), data.PinnedEpochs(); c != 0 || d != 0 {
			t.Errorf("%s: pinned epochs left behind: client %d, data %d", name, c, d)
		}
	}
}

// TestResultForestIsOwned: Eval's forest shares no node with the
// stored document — changing it and querying again gives the stored
// answer — while the streaming cursor hands out the stored nodes.
func TestResultForestIsOwned(t *testing.T) {
	sys := cursorSystem(t, 10)
	client, _ := sys.Peer("client")
	h := client.Snapshot()
	defer h.Release()
	root, err := h.Root("catalog")
	if err != nil {
		t.Fatal(err)
	}
	stored := map[*xmltree.Node]bool{}
	root.Walk(func(n *xmltree.Node) bool { stored[n] = true; return true })
	for _, src := range []string{
		`doc("catalog")/item`,
		`for $i in doc("catalog")/item where $i/price < 50 return $i`,
		`for $i in doc("catalog")/item return <hit>{$i/name}</hit>`,
	} {
		e := &Query{Q: mustParseQuery(t, src), At: "client"}
		res, err := sys.Eval("client", e)
		if err != nil {
			t.Fatal(err)
		}
		want := string(serializeForest(res.Forest))
		for _, tree := range res.Forest {
			tree.Walk(func(n *xmltree.Node) bool {
				if stored[n] {
					t.Fatalf("%s: Result.Forest shares %s with the document", src, xmltree.Serialize(n))
				}
				return true
			})
			tree.Children[0].Label = "changed"
			tree.AppendChild(xmltree.E("extra"))
		}
		again, err := sys.Eval("client", e)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(serializeForest(again.Forest)); got != want {
			t.Errorf("%s: changing the forest changed the document: %s", src, got)
		}
	}
	cur, err := sys.EvalCursor("client", &Query{Q: mustParseQuery(t, `doc("catalog")/item`), At: "client"})
	if err != nil {
		t.Fatal(err)
	}
	rows := drainRows(t, cur)
	if len(rows) != 10 || !stored[rows[0]] {
		t.Errorf("the streaming cursor copied its rows")
	}
}
