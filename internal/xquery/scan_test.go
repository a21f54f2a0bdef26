package xquery

import (
	"context"
	"fmt"
	"testing"

	"axml/internal/workload"
	"axml/internal/xmltree"
)

// The catalog shape of the perf ledger (benchmarks/oracle.go): 2,000
// items, each <item id cat><name/><price/><desc/></item>.
const scanItems = 2000

func scanCatalog() *xmltree.Node {
	return workload.Catalog(workload.CatalogSpec{Items: scanItems, PriceMax: 1000, DescWords: 10, Seed: 1})
}

func scanEnv(root *xmltree.Node) *Env {
	return &Env{Resolve: func(string) (*xmltree.Node, error) { return root, nil }}
}

func drainRows(tb testing.TB, q *Query, env *Env) int {
	tb.Helper()
	cur, err := q.EvalCursor(context.Background(), env)
	if err != nil {
		tb.Fatal(err)
	}
	defer cur.Close()
	rows := 0
	for {
		n, err := cur.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if n == nil {
			return rows
		}
		rows++
	}
}

var pointLookup = MustParse(fmt.Sprintf(
	`for $i in doc("catalog")/item where $i/@id = "%d" return $i/name`, scanItems/2))

// TestScanAllocationBudget pins what a candidate the where clause
// rejects may cost: the point lookup examines every item and returns
// one, so allocations per run divided by the item count is the cost of
// a rejected candidate plus a vanishing share of the fixed work: its
// binding (the one-node set, its boxing, a scope link, the tuple
// context) and what $i/@id = "K" builds (the attribute node, the step's
// result, its boxing).
func TestScanAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	env := scanEnv(scanCatalog())
	if rows := drainRows(t, pointLookup, env); rows != 1 {
		t.Fatalf("point lookup returned %d rows, want 1", rows)
	}
	perRun := testing.AllocsPerRun(20, func() { drainRows(t, pointLookup, env) })
	perItem := perRun / scanItems
	t.Logf("%.0f allocations per lookup, %.2f per scanned item", perRun, perItem)
	if perItem > 8 {
		t.Errorf("point lookup allocates %.2f times per scanned item, budget is 8", perItem)
	}
}

func BenchmarkPointLookupScan(b *testing.B) {
	env := scanEnv(scanCatalog())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainRows(b, pointLookup, env)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/scanItems, "ns/item")
}

func BenchmarkBulkScan(b *testing.B) {
	env := scanEnv(scanCatalog())
	q := MustParse(`for $i in doc("catalog")/item where $i/price < 500 return $i`)
	rows := drainRows(b, q, env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainRows(b, q, env)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// BenchmarkDeltaAfterFlip is one view-maintenance step: a single
// item's price crosses the view's boundary between two delta calls, so
// the step re-evaluates the source path, digests every item and derives
// exactly one.
func BenchmarkDeltaAfterFlip(b *testing.B) {
	root := scanCatalog()
	q := MustParse(`for $i in doc("catalog")/item where $i/price < 500 return $i`)
	inc, ok := NewDeltaFor(q, nil)
	if !ok {
		b.Fatal("query does not incrementalize")
	}
	env := scanEnv(root)
	if _, err := inc.DeltaEventsWith(env); err != nil {
		b.Fatal(err)
	}
	price := root.Children[scanItems/2].FirstChildElement("price").Children[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		price.Text = [2]string{"100", "900"}[i%2]
		ev, err := inc.DeltaEventsWith(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(ev.Additions) != 1 {
			b.Fatalf("flip derived %d sources, want 1", len(ev.Additions))
		}
	}
}

// The delegated_hot shape of the perf ledger: a 200-item catalog and a
// selection that returns about 60 whole items. hotWrapped is the same
// selection through a constructor, whose content is itself drained.
const hotItems = 200

func hotCatalog() *xmltree.Node {
	return workload.Catalog(workload.CatalogSpec{Items: hotItems, PriceMax: 1000, DescWords: 10, Seed: 1})
}

var (
	hotSelection = MustParse(`for $i in doc("catalog")/item where $i/price < 300 return $i`)
	hotWrapped   = MustParse(`for $i in doc("catalog")/item where $i/price < 300 return <r>{$i/name}</r>`)
)

// TestEvalAllocationParity pins what draining the cursor into a forest
// may cost on the hot shape: the eager evaluator Eval used to be made
// 2,040 allocations here, and the drain is not to cost more than the
// per-evaluation state it adds.
func TestEvalAllocationParity(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	env := scanEnv(hotCatalog())
	perRun := testing.AllocsPerRun(20, func() {
		if _, err := hotSelection.Eval(env); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per Eval", perRun)
	if perRun > 2060 {
		t.Errorf("Eval allocates %.0f times on the hot shape, budget is 2060", perRun)
	}
}

// BenchmarkEvalDrain is Query.Eval — the cursor drained into a forest,
// as the delegation handler, service application and peer.RunQuery
// consume it — on the hot shape and through a constructor.
func BenchmarkEvalDrain(b *testing.B) {
	env := scanEnv(hotCatalog())
	for _, bc := range []struct {
		name string
		q    *Query
	}{{"selection", hotSelection}, {"constructor", hotWrapped}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := bc.q.Eval(env)
				if err != nil || len(out) == 0 {
					b.Fatalf("%d rows, %v", len(out), err)
				}
			}
		})
	}
}

// BenchmarkFLWROrderBy evaluates a selection with an order by, which
// materializes every tuple before the first row.
func BenchmarkFLWROrderBy(b *testing.B) {
	tree := workload.Catalog(workload.CatalogSpec{Items: 500, PriceMax: 100, Seed: 1})
	env := &Env{Resolve: func(string) (*xmltree.Node, error) { return tree, nil }}
	q := MustParse(`for $i in doc("c")/item where $i/price < 50 order by $i/price return <r>{$i/name}</r>`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Eval(env); err != nil {
			b.Fatal(err)
		}
	}
}
