package xmltree_test

import (
	"testing"

	"axml/internal/workload"
	"axml/internal/xmltree"
)

// The catalog shape of the perf ledger (benchmarks/oracle.go).
func benchCatalog() *xmltree.Node {
	return workload.Catalog(workload.CatalogSpec{Items: 2000, PriceMax: 1000, DescWords: 10, Seed: 1})
}

var (
	sinkString string
	sinkNode   *xmltree.Node
	sinkInt    int
)

// BenchmarkTextContent takes the string-value of every <price>: the
// single-text-child case a where clause pays once per candidate.
func BenchmarkTextContent(b *testing.B) {
	var prices []*xmltree.Node
	for _, item := range benchCatalog().Children {
		prices = append(prices, item.FirstChildElement("price"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range prices {
			sinkString = p.TextContent()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(prices)), "ns/node")
}

// BenchmarkTextContentMixed is the general case: an <item>'s
// string-value concatenates the text of all its descendants.
func BenchmarkTextContentMixed(b *testing.B) {
	items := benchCatalog().Children
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, it := range items {
			sinkString = it.TextContent()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(items)), "ns/node")
}

// BenchmarkDeepCopy copies one <item> per operation — what the cursor
// does for every row it yields.
func BenchmarkDeepCopy(b *testing.B) {
	items := benchCatalog().Children
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkNode = xmltree.DeepCopy(items[i%len(items)])
	}
}

func BenchmarkNodeCount(b *testing.B) {
	root := benchCatalog()
	nodes := root.NodeCount()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt = root.NodeCount()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
}

// BenchmarkByteSize sizes the whole catalog — what the optimizer's
// estimator pays for every document a candidate plan reads.
func BenchmarkByteSize(b *testing.B) {
	root := benchCatalog()
	nodes := root.NodeCount()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt = root.ByteSize()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
}

// The parse/serialize/hash catalog: 200 items with 10-word descriptions.
func substrateCatalog() *xmltree.Node {
	return workload.Catalog(workload.CatalogSpec{Items: 200, PriceMax: 100, DescWords: 10, Seed: 1})
}

func BenchmarkParse(b *testing.B) {
	doc := xmltree.Serialize(substrateCatalog())
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.Parse(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialize(b *testing.B) {
	tree := substrateCatalog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString = xmltree.Serialize(tree)
	}
}

func BenchmarkCanonicalHash(b *testing.B) {
	tree := substrateCatalog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = xmltree.Hash(tree)
	}
}

// The catalog half of TestByteSizeEqualsSerialize: workload imports
// xmltree, so only the external test package can generate it.
func TestByteSizeEqualsSerializeCatalog(t *testing.T) {
	root := benchCatalog()
	if got, want := root.ByteSize(), len(xmltree.Serialize(root)); got != want {
		t.Errorf("ByteSize = %d, want len(Serialize) = %d", got, want)
	}
	if allocs := testing.AllocsPerRun(5, func() { sinkInt = root.ByteSize() }); allocs != 0 {
		t.Errorf("ByteSize allocates %v times on the catalog", allocs)
	}
}
