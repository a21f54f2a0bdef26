package session

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/view"
	"axml/internal/workload"
)

// TestViewReadAllocations counts a read of the ledger's mixed_rw shape
// through a session: a view of the 200 cheapest of 2,000 items at
// client, over a catalog at data, answers a selection of 60 of them,
// run WithConsistentView with nothing committed between reads. The
// stream's view guard reads one removal counter when it opens; while it
// copied and sorted each view's placement set, the read allocated
// 380 times per op.
func TestViewReadAllocations(t *testing.T) {
	sys := core.NewSystem(netsim.New())
	sys.MustAddPeer("client")
	data := sys.MustAddPeer("data")
	cat := workload.Catalog(workload.CatalogSpec{Items: 2000, PriceMax: 1000, DescWords: 10, Seed: 1})
	var prices []int
	for _, item := range cat.ChildElementsByLabel("item") {
		p, err := strconv.Atoi(item.ChildElementsByLabel("price")[0].TextContent())
		if err != nil {
			t.Fatal(err)
		}
		prices = append(prices, p)
	}
	sort.Ints(prices)
	if err := data.InstallDocument("catalog", cat); err != nil {
		t.Fatal(err)
	}
	views := view.NewManager(sys)
	t.Cleanup(views.Close)
	const sel = `for $i in doc("catalog")/item where $i/price < %d return $i`
	if err := views.Define("cheap", fmt.Sprintf(sel, prices[200]), "client"); err != nil {
		t.Fatal(err)
	}
	sess := newSession(t, sys, views)
	src := fmt.Sprintf(sel, prices[60])
	ctx := context.Background()
	read := func() int {
		rows, err := sess.Query(ctx, src, WithConsistentView())
		if err != nil {
			t.Fatal(err)
		}
		forest, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return len(forest)
	}
	if n := read(); n != 60 {
		t.Fatalf("the read returned %d rows, want 60", n)
	}
	for _, elem := range sess.plans {
		if got := elem.Value.(*cachedPlan).views; len(got) != 1 || got[0] != "cheap" {
			t.Fatalf("the plan reads views %v, want [cheap]", got)
		}
	}

	if raceEnabled {
		return // the race detector allocates on its own account
	}
	if allocs := testing.AllocsPerRun(20, func() { read() }); allocs > 376 {
		t.Errorf("a view-answered read allocates %v times per op, want at most 376", allocs)
	}
}

// TestPointLookupAllocations counts the ledger's point_lookup shape
// through a session alone, with no wire under it: one row out of a
// 2,000-item catalog at the session's own peer, the plan cached, Query
// and the drain together. The text was answered before, so the lookup
// finds its plan by the text alone: no parse and no view.QueryKey. The
// ceiling is the count measured then; it was 68 while every hit parsed
// the text and printed its shape key.
func TestPointLookupAllocations(t *testing.T) {
	sys := core.NewSystem(netsim.New())
	client := sys.MustAddPeer("client")
	cat := workload.Catalog(workload.CatalogSpec{Items: 2000, PriceMax: 1000, DescWords: 10, Seed: 1})
	if err := client.InstallDocument("catalog", cat); err != nil {
		t.Fatal(err)
	}
	views := view.NewManager(sys)
	t.Cleanup(views.Close)
	sess := newSession(t, sys, views)
	const src = `for $i in doc("catalog")/item where $i/@id = "17" return $i/name`
	ctx := context.Background()
	lookup := func() {
		rows, err := sess.Query(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		forest, err := rows.Collect()
		if err != nil || len(forest) != 1 {
			t.Fatalf("the lookup returned %d rows, %v; want 1", len(forest), err)
		}
	}
	lookup()
	if raceEnabled {
		return // the race detector allocates on its own account
	}
	if allocs := testing.AllocsPerRun(50, lookup); allocs > 38 {
		t.Errorf("a cached point lookup allocates %v times per op, want at most 38", allocs)
	}
}
