package xquery

import (
	"context"
	"fmt"
	"math"
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
// rejects may cost: nothing. The point lookup examines every item and
// returns one; a rejected item is rebound in its for-frame in place and
// $i/@id = "K" compares each attribute as it reaches it, so the whole
// lookup costs the evaluation's fixed work and its one row: 22
// allocations, where one allocation per item would be 2,000.
func TestScanAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	env := scanEnv(scanCatalog())
	if rows := drainRows(t, pointLookup, env); rows != 1 {
		t.Fatalf("point lookup returned %d rows, want 1", rows)
	}
	perRun := testing.AllocsPerRun(20, func() { drainRows(t, pointLookup, env) })
	t.Logf("%.0f allocations per lookup of %d items", perRun, scanItems)
	if perRun > 32 {
		t.Errorf("point lookup allocates %.0f times, budget is 32", perRun)
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
// costs on the hot shape: the rejected items cost nothing, so the 1,092
// allocations are the accepted items' scopes and copies.
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
	if perRun > 1120 {
		t.Errorf("Eval allocates %.0f times on the hot shape, budget is 1,120", perRun)
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

// TestBulkScanAllocationBudget pins what BenchmarkBulkScan's query
// costs a run: the half of the catalog it returns is handed out as the
// document's own nodes, and the half it rejects costs nothing, so the
// budget is the binding of each returned item (reads 5,121).
func TestBulkScanAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	env := scanEnv(scanCatalog())
	q := MustParse(`for $i in doc("catalog")/item where $i/price < 500 return $i`)
	perRun := testing.AllocsPerRun(20, func() { drainRows(t, q, env) })
	t.Logf("%.0f allocations per bulk scan", perRun)
	if perRun > 5200 {
		t.Errorf("bulk scan allocates %.0f times per run, budget is 5,200", perRun)
	}
}

// builtIndexes holds the value index of every shape over root, built
// on first use as a peer builds it for a published root.
type builtIndexes struct {
	root  *xmltree.Node
	built map[Shape]*ValueIndex
}

func (b *builtIndexes) Index(_ string, r *xmltree.Node, s Shape) (*ValueIndex, bool) {
	if r != b.root {
		return nil, false
	}
	idx, ok := b.built[s]
	if !ok {
		idx, _, _ = s.Build(r, math.MaxInt)
		b.built[s] = idx
	}
	return idx, true
}

// indexEnv is scanEnv with every value index over root.
func indexEnv(root *xmltree.Node) *Env {
	env := scanEnv(root)
	env.Index = &builtIndexes{root: root, built: map[Shape]*ValueIndex{}}
	return env
}

// scannedBy is how many candidate tuples draining q examines.
func scannedBy(t *testing.T, q *Query, env *Env) (rows int, scanned uint) {
	t.Helper()
	cur, err := q.EvalCursor(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	for {
		n, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if n == nil {
			return rows, cur.(*queryCursor).ev.scanned
		}
		rows++
	}
}

// TestPointLookupExaminesOne counts what the point lookup examines on
// the 2,000-item catalog: every item and one more look that finds the
// for clause spent when it scans, and the one item whose @id matches
// plus that look when the value index narrows its candidates. Both
// return the same row.
func TestPointLookupExaminesOne(t *testing.T) {
	root := scanCatalog()
	for _, c := range []struct {
		name    string
		env     *Env
		scanned uint
	}{{"scan", scanEnv(root), 2001}, {"indexed", indexEnv(root), 2}} {
		rows, scanned := scannedBy(t, pointLookup, c.env)
		if rows != 1 || scanned != c.scanned {
			t.Errorf("%s: %d rows, %d candidates examined; want 1 row, %d examined", c.name, rows, scanned, c.scanned)
		}
	}
}

// TestIndexedLookupAllocations pins what the indexed point lookup
// costs once its index is built: 18 allocations, the scan's 22 less
// the node-set of 2,000 candidates it no longer collects, plus the two
// paths of the shape it recognises.
func TestIndexedLookupAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	env := indexEnv(scanCatalog())
	drainRows(t, pointLookup, env)
	perRun := testing.AllocsPerRun(20, func() { drainRows(t, pointLookup, env) })
	if perRun != 18 {
		t.Errorf("indexed point lookup allocates %.0f times, want 18", perRun)
	}
}

func BenchmarkPointLookupIndexed(b *testing.B) {
	env := indexEnv(scanCatalog())
	drainRows(b, pointLookup, env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainRows(b, pointLookup, env)
	}
}

// BenchmarkIndexBuild is what the first point lookup on a newly
// published root pays: one walk of the catalog for its @id index.
func BenchmarkIndexBuild(b *testing.B) {
	root := scanCatalog()
	s := Shape{For: "item", Key: "@id"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n, ok := s.Build(root, math.MaxInt); !ok || n != scanItems {
			b.Fatalf("index of %d entries, ok %v", n, ok)
		}
	}
}
