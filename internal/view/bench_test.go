package view

import (
	"context"
	"fmt"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/workload"
	"axml/internal/xmltree"
)

// benchRows is the size of the benchmarks' view whatever the size of
// its base (the ledger's mixed_rw view holds 200 of 2,000 items):
// landing a row copies the view root's child list, a cost of the
// copy-on-write store that follows the view, not the base.
const benchRows = 200

// benchView is one peer holding a catalog of the given size and a view
// of its benchRows cheapest items, the placement beside its base as a
// served peer has it: a refresh pays the delta and a local landing, no
// simulated link.
func benchView(b *testing.B, items int) (*Manager, *peer.Peer) {
	b.Helper()
	sys := core.NewSystem(netsim.New())
	b.Cleanup(sys.Close)
	store := sys.MustAddPeer("store")
	if err := store.InstallDocument("catalog", workload.Catalog(workload.CatalogSpec{
		Items: items, PriceMax: 1000, DescWords: 4, Seed: 7})); err != nil {
		b.Fatal(err)
	}
	m := NewManager(sys)
	b.Cleanup(m.Close)
	if err := m.Define("cheap", fmt.Sprintf(
		`for $i in doc("catalog")/item where $i/price < %d return $i`, 1000*benchRows/items), "store"); err != nil {
		b.Fatal(err)
	}
	return m, store
}

// BenchmarkRefreshAfterCommit is the read path's refresh after one
// write below a view source: the price of one item flips across the
// view's boundary, so each refresh ships one row or one retraction.
// The work should follow the write, not the document — the larger
// catalog costs little more than the smaller.
func BenchmarkRefreshAfterCommit(b *testing.B) {
	for _, items := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			m, store := benchView(b, items)
			catalog := docRoot(b, store, "catalog")
			price := catalog.Children[items/2].FirstChildElement("price").ID
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				next := xmltree.E("price", xmltree.T(fmt.Sprint(999*(i%2))))
				if err := store.ReplaceChildByID(0, price, next); err != nil {
					b.Fatal(err)
				}
				price = next.ID
				b.StartTimer()
				if n, err := m.RefreshContext(ctx, "cheap"); err != nil || n != 1 {
					b.Fatalf("refresh applied %d operations, %v; want 1", n, err)
				}
			}
		})
	}
}

// BenchmarkRefreshNoCommit is the same refresh when nothing was
// written: a pinned epoch and one comparison. It fails if the refresh
// allocates more than pinning and releasing a snapshot does.
func BenchmarkRefreshNoCommit(b *testing.B) {
	m, store := benchView(b, 2000)
	ctx := context.Background()
	refresh := func() {
		if n, err := m.RefreshContext(ctx, "cheap"); err != nil || n != 0 {
			b.Fatalf("idle refresh applied %d operations, %v", n, err)
		}
	}
	pin := testing.AllocsPerRun(100, func() { store.Snapshot().Release() })
	if got := testing.AllocsPerRun(100, refresh); got > pin {
		b.Fatalf("idle refresh allocates %.0f objects, a snapshot pin %.0f", got, pin)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refresh()
	}
}
