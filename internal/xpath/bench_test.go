package xpath

import (
	"testing"

	"axml/internal/workload"
)

// benchSelect times one compiled path over the perf ledger's catalog
// shape (benchmarks/oracle.go) and reports the cost per <item>.
func benchSelect(b *testing.B, path string) {
	const items = 2000
	root := workload.Catalog(workload.CatalogSpec{Items: items, PriceMax: 1000, DescWords: 10, Seed: 1})
	c := MustCompile(path)
	ns, err := c.Select(root)
	if err != nil {
		b.Fatal(err)
	}
	if len(ns) == 0 {
		b.Fatalf("%s selected nothing", path)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Select(root); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/items, "ns/item")
}

// The ledger's xpath.select path: a predicate comparing a child's
// string-value with a number, then a child step from every survivor.
func BenchmarkSelectPredicate(b *testing.B) { benchSelect(b, `item[price < 500]/name`) }

// One attribute looked up by name on every item.
func BenchmarkSelectAttribute(b *testing.B) { benchSelect(b, `item/@id`) }

// A descendant step from the root, then a parent step from 2,000
// nodes — the axes that still need the duplicate set.
func BenchmarkSelectDescendant(b *testing.B) { benchSelect(b, `descendant::price/..`) }
