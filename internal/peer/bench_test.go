package peer

import (
	"fmt"
	"testing"

	"axml/internal/workload"
	"axml/internal/xmltree"
)

// benchStore is a peer holding a 2,000-item catalog, and the price node
// of an item in its middle.
func benchStore(b *testing.B) (*Peer, xmltree.NodeID) {
	b.Helper()
	p := New("store")
	root := workload.Catalog(workload.CatalogSpec{Items: 2000, PriceMax: 1000, DescWords: 4, Seed: 7})
	if err := p.InstallDocument("catalog", root); err != nil {
		b.Fatal(err)
	}
	return p, root.Children[1000].FirstChildElement("price").ID
}

// BenchmarkCommit is one copy-on-write commit two levels down (the
// ledger's mixed_rw write): what the write path pays, the change feed's
// record included.
func BenchmarkCommit(b *testing.B) {
	p, price := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := xmltree.E("price", xmltree.T(fmt.Sprint(i%1000)))
		if err := p.ReplaceChildByID(0, price, next); err != nil {
			b.Fatal(err)
		}
		price = next.ID
	}
}

// BenchmarkCommitAndChanges is BenchmarkCommit followed by a feed
// consumer's read of it: pin, ask what changed since the last pin,
// release. The difference to BenchmarkCommit is what the consumer pays.
func BenchmarkCommitAndChanges(b *testing.B) {
	p, price := benchStore(b)
	seen := p.Epoch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := xmltree.E("price", xmltree.T(fmt.Sprint(i%1000)))
		if err := p.ReplaceChildByID(0, price, next); err != nil {
			b.Fatal(err)
		}
		price = next.ID
		h := p.Snapshot()
		commits, ok := h.Changes("catalog", seen)
		seen = h.Epoch()
		h.Release()
		if !ok || len(commits) != 1 {
			b.Fatalf("Changes = %d commits, ok=%v; want the one just made", len(commits), ok)
		}
	}
}
