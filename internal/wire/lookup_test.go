package wire

import (
	"context"
	"net"
	"testing"
	"time"

	"axml/internal/workload"
	"axml/internal/xmltree"
)

// TestPointLookupAllocations counts a request of the ledger's
// point_lookup shape end to end: one row out of a 2,000-item catalog,
// through Client.Query against a Server on loopback, client and server
// allocations together. The ledger's readers give each request a
// timeout context; a context that cannot be canceled arms no
// cancellation at all. Both counts are ceilings: 104 and 109 while
// each request started a goroutine to watch its context and the
// client read a reply through closures over a dozen captured
// variables, 86 and 97 while the server's session parsed every text it
// had answered before.
func TestPointLookupAllocations(t *testing.T) {
	catalog := workload.Catalog(workload.CatalogSpec{Items: 2000, PriceMax: 1000, DescWords: 10, Seed: 1})
	p, views := newStore(t, map[string]*xmltree.Node{"catalog": catalog})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := serveOn(t, &Server{Peer: p, Views: views}, l)
	const src = `for $i in doc("catalog")/item where $i/@id = "17" return $i/name`
	lookup := func(ctx context.Context) {
		rows, err := c.Query(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		forest, err := rows.Collect()
		if err != nil || len(forest) != 1 {
			t.Fatalf("the lookup returned %d rows, %v; want 1", len(forest), err)
		}
	}
	lookup(context.Background())
	if raceEnabled {
		return // the race detector allocates on its own account
	}
	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		max  float64
	}{
		{"background", func() (context.Context, context.CancelFunc) { return context.Background(), func() {} }, 56},
		{"timeout", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), time.Minute)
		}, 67},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			ctx, cancel := tc.ctx()
			lookup(ctx)
			cancel()
		})
		if allocs > tc.max {
			t.Errorf("%s: a point lookup allocates %v times, want at most %v", tc.name, allocs, tc.max)
		}
	}
}
