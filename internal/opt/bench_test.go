package opt

import (
	"fmt"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/rewrite"
	"axml/internal/view"
	"axml/internal/workload"
	"axml/internal/xquery"
)

// BenchmarkOptimizeMiss is the search one plan-cache miss pays, on the
// perf ledger's two shapes (benchmarks/layers.go): the catalog at
// "data", the query planned at "store" with the view manager's rule
// beside the default ones, as a session plans it.
func BenchmarkOptimizeMiss(b *testing.B) {
	selection := func(rows, items int, ret string) string {
		return fmt.Sprintf(`for $i in doc("catalog")/item where $i/price < %d return %s`, 1000*rows/items, ret)
	}
	for _, bc := range []struct {
		name  string
		items int
		view  string // defined at "store" when set
		query string
	}{
		// plan_churn: a never-seen constructor over 4 rows of a 200-item
		// remote catalog; 49 plans explored.
		{"plan_churn", 200, "", selection(4, 200, "<h0>{$i/name}</h0>")},
		// mixed_rw's first plans: a selection subsumed by a 200-row view
		// of a 2,000-item remote catalog.
		{"view_subsumed", 2000, selection(200, 2000, "$i"), selection(50, 2000, "$i")},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sys := core.NewSystem(netsim.New())
			b.Cleanup(sys.Close)
			sys.MustAddPeer("store")
			data := sys.MustAddPeer("data")
			if err := data.InstallDocument("catalog", workload.Catalog(workload.CatalogSpec{
				Items: bc.items, PriceMax: 1000, DescWords: 10, Seed: 1})); err != nil {
				b.Fatal(err)
			}
			views := view.NewManager(sys)
			b.Cleanup(views.Close)
			if bc.view != "" {
				if err := views.Define("cheap", bc.view, "store"); err != nil {
					b.Fatal(err)
				}
			}
			opts := Options{ExtraRules: []rewrite.Rule{views.Rule()}}
			e := &core.Query{Q: xquery.MustParse(bc.query), At: "store"}
			explored := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, n, err := Optimize(sys, "store", e, opts)
				if err != nil {
					b.Fatal(err)
				}
				explored = n
			}
			b.ReportMetric(float64(explored), "plans/op")
		})
	}
}
