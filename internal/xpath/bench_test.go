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

// TestSelectAllocations pins the allocations per Select of the three
// benchmarked paths over the 2,000-item catalog. A predicate compares
// while it walks, so the first path allocates only its result sets; the
// attribute step makes a node for each of the 2,000 attributes it
// selects; the parent step keeps the set of parents it has seen, a map
// whose allocations vary from run to run, so its count is a ceiling.
func TestSelectAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	root := workload.Catalog(workload.CatalogSpec{Items: 2000, PriceMax: 1000, DescWords: 10, Seed: 1})
	for _, c := range []struct {
		path   string
		allocs float64
		exact  bool
	}{
		{`item[price < 500]/name`, 3, true},
		{`item/@id`, 2_003, true},
		{`descendant::price/..`, 150, false}, // read 142 to 147
	} {
		x := MustCompile(c.path)
		got := testing.AllocsPerRun(10, func() {
			if _, err := x.Select(root); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.allocs && (c.exact || got > c.allocs) {
			t.Errorf("%s: %v allocations per Select, want %v", c.path, got, c.allocs)
		}
	}
}
