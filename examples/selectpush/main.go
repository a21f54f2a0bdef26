// Selectpush reproduces Example 1 of the paper ("pushing selections")
// end to end through the unified session API: a selective query over a
// remote catalog evaluated (a) naively — the whole document ships to
// the client (definition (7)) — and (b) through the session's default
// pipeline, where the cost-based optimizer derives the (11)+(10)
// rewrite and only matching items ship. The example prints the
// measured traffic of both, then repeats the optimized query to show
// the session's plan cache skipping the second optimizer search. It
// exits non-zero unless both plans answer alike and the optimized one
// moves fewer bytes.
//
//	go run ./examples/selectpush
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	axml "axml"
	"axml/internal/workload"
)

const query = `
	for $i in doc("catalog")/item
	where $i/price < 10
	return <hit>{$i/name}</hit>`

func main() {
	build := func() *axml.System {
		sys := axml.NewLocalSystem()
		sys.Net.SetDefaultLink(axml.Link{LatencyMs: 20, BytesPerMs: 200})
		sys.MustAddPeer("client")
		data := sys.MustAddPeer("data")
		// 1000 items, uniform prices in [0,1000): price < 10 selects ~1%.
		cat := workload.Catalog(workload.CatalogSpec{
			Items: 1000, PriceMax: 1000, DescWords: 10, Seed: 7,
		})
		if err := data.InstallDocument("catalog", cat); err != nil {
			log.Fatal(err)
		}
		return sys
	}
	ctx := context.Background()

	// (a) Naive plan: evaluate as written; doc("catalog") is fetched whole.
	naiveSys := build()
	naiveSess := naiveSys.MustSession("client")
	nRows, err := naiveSess.Query(ctx, query, axml.WithNoOptimize())
	if err != nil {
		log.Fatal(err)
	}
	nForest, err := nRows.Collect()
	if err != nil {
		log.Fatal(err)
	}
	nStats := naiveSys.Net.Stats()

	// (b) The session's default pipeline optimizes: it derives Example
	// 1's decomposition — σ runs at the data peer, the residual at the
	// client.
	optSys := build()
	optSess, err := optSys.LocalSession("client")
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	oRows, err := optSess.Query(ctx, query)
	if err != nil {
		log.Fatal(err)
	}
	oForest, err := oRows.Collect()
	if err != nil {
		log.Fatal(err)
	}
	firstMs := float64(time.Since(start)) / float64(time.Millisecond)
	oStats := optSys.Net.Stats()

	fmt.Println("Example 1 — pushing selections (session API)")
	fmt.Println()
	fmt.Printf("naive   (WithNoOptimize): results=%d  bytes=%d  messages=%d\n",
		len(nForest), nStats.Bytes, nStats.Messages)
	fmt.Printf("session (optimized):      results=%d  bytes=%d  messages=%d\n",
		len(oForest), oStats.Bytes, oStats.Messages)
	fmt.Printf("traffic reduction: %.1fx\n", float64(nStats.Bytes)/float64(oStats.Bytes))

	// Repeat the query: the plan cache answers without a new search.
	start = time.Now()
	if rows, err := optSess.Query(ctx, query); err != nil {
		log.Fatal(err)
	} else if _, err := rows.Collect(); err != nil {
		log.Fatal(err)
	}
	repeatMs := float64(time.Since(start)) / float64(time.Millisecond)
	cache := optSys.Metrics().Snapshot().Counters
	fmt.Println()
	fmt.Printf("plan cache: %d miss, %d hit (first run %.2fms, repeat %.2fms)\n",
		cache["session.plan_cache.misses"], cache["session.plan_cache.hits"], firstMs, repeatMs)

	if len(nForest) != len(oForest) {
		log.Fatalf("plans disagree: %d vs %d results", len(nForest), len(oForest))
	}
	if oStats.Bytes >= nStats.Bytes {
		log.Fatalf("the optimized session moved %d bytes, the naive one %d", oStats.Bytes, nStats.Bytes)
	}
}
