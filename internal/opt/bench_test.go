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

// missShape is one plan-cache miss of the perf ledger
// (benchmarks/layers.go): the catalog at "data", the query planned at
// "store" with the view manager's rule beside the default ones, as a
// session plans it.
type missShape struct {
	name  string
	items int
	view  string // defined at "store" when set
	query string
}

func missShapes() []missShape {
	selection := func(rows, items int, ret string) string {
		return fmt.Sprintf(`for $i in doc("catalog")/item where $i/price < %d return %s`, 1000*rows/items, ret)
	}
	return []missShape{
		// plan_churn: a never-seen constructor over 4 rows of a 200-item
		// remote catalog.
		{"plan_churn", 200, "", selection(4, 200, "<h0>{$i/name}</h0>")},
		// mixed_rw's first plans: a selection subsumed by a 200-row view
		// of a 2,000-item remote catalog.
		{"view_subsumed", 2000, selection(200, 2000, "$i"), selection(50, 2000, "$i")},
	}
}

// setup builds the shape's system and returns it with the options and
// the naive plan a session would hand Optimize.
func (s missShape) setup(tb testing.TB) (*core.System, Options, core.Expr) {
	tb.Helper()
	sys := core.NewSystem(netsim.New())
	tb.Cleanup(sys.Close)
	sys.MustAddPeer("store")
	data := sys.MustAddPeer("data")
	if err := data.InstallDocument("catalog", workload.Catalog(workload.CatalogSpec{
		Items: s.items, PriceMax: 1000, DescWords: 10, Seed: 1})); err != nil {
		tb.Fatal(err)
	}
	views := view.NewManager(sys)
	tb.Cleanup(views.Close)
	if s.view != "" {
		if err := views.Define("cheap", s.view, "store"); err != nil {
			tb.Fatal(err)
		}
	}
	return sys, Options{ExtraRules: []rewrite.Rule{views.Rule()}},
		&core.Query{Q: xquery.MustParse(s.query), At: "store"}
}

// BenchmarkOptimizeMiss is the search one plan-cache miss pays, on the
// perf ledger's two shapes.
func BenchmarkOptimizeMiss(b *testing.B) {
	for _, s := range missShapes() {
		b.Run(s.name, func(b *testing.B) {
			sys, opts, e := s.setup(b)
			explored, priced := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est := NewEstimator(sys)
				_, n, err := est.optimize("store", e, opts)
				if err != nil {
					b.Fatal(err)
				}
				explored, priced = n, est.memo.priced
			}
			b.ReportMetric(float64(explored), "plans/op")
			b.ReportMetric(float64(priced), "estimates/op")
		})
	}
}
