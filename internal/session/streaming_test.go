package session

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/view"
	"axml/internal/workload"
	"axml/internal/xmltree"
)

// streamSystem hosts "outer" at the client and "inner" at data: a
// query whose return expression reads doc("inner") pays one network
// fetch per row, which makes the evaluator's progress observable from
// the network counters.
func streamSystem(t *testing.T, items int) (*core.System, *view.Manager) {
	t.Helper()
	net := netsim.New()
	sys := core.NewSystem(net)
	client := sys.MustAddPeer("client")
	data := sys.MustAddPeer("data")
	outer := xmltree.E("outer")
	for i := 0; i < items; i++ {
		outer.AppendChild(xmltree.MustParse(fmt.Sprintf(`<item><n>%d</n></item>`, i)))
	}
	if err := client.InstallDocument("outer", outer); err != nil {
		t.Fatal(err)
	}
	if err := data.InstallDocument("inner", xmltree.MustParse(`<inner><x>1</x></inner>`)); err != nil {
		t.Fatal(err)
	}
	views := view.NewManager(sys)
	t.Cleanup(views.Close)
	t.Cleanup(sys.Close)
	return sys, views
}

const perRowFetchQ = `for $i in doc("outer")/item return <r>{$i/n}{doc("inner")/x}</r>`

// TestRowsCloseAbandonsEvaluation: Rows.Close after N rows stops the
// evaluator — the per-row network fetches stop with it, instead of
// running to the end of the result as a drain would.
func TestRowsCloseAbandonsEvaluation(t *testing.T) {
	const items = 50
	sys, views := streamSystem(t, items)
	sess := newSession(t, sys, views)

	// Baseline: a full drain fetches the inner doc once per row.
	rows, err := sess.Query(context.Background(), perRowFetchQ, WithNoOptimize())
	if err != nil {
		t.Fatal(err)
	}
	forest, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != items {
		t.Fatalf("rows = %d", len(forest))
	}
	fullMsgs := sys.Net.Stats().Messages
	if fullMsgs == 0 {
		t.Fatal("expected per-row fetch traffic")
	}

	rows, err = sess.Query(context.Background(), perRowFetchQ, WithNoOptimize())
	if err != nil {
		t.Fatal(err)
	}
	const read = 3
	for i := 0; i < read; i++ {
		if !rows.Next() {
			t.Fatalf("row %d: stream ended early: %v", i, rows.Err())
		}
	}
	before := sys.Net.Stats().Messages
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	after := sys.Net.Stats().Messages
	if after != before {
		t.Errorf("Close kept evaluating: %d messages during Close", after-before)
	}
	// Reading ~3 of 50 rows must cost a small fraction of the full
	// drain's traffic (first row is pulled eagerly at Query time, so
	// allow read+1 fetches).
	partial := after - fullMsgs
	perRow := fullMsgs / items // upper bound on per-row message count
	if partial > int64(read+1)*perRow {
		t.Errorf("partial read cost %d messages, full drain %d — not lazy", partial, fullMsgs)
	}
	if rows.Next() {
		t.Error("Next after Close should be false")
	}
	if err := rows.Err(); err != nil {
		t.Errorf("abandoned rows report error: %v", err)
	}

	// The session survives an abandoned stream.
	n, err := sess.Exec(context.Background(), `doc("outer")/item`)
	if err != nil || n != items {
		t.Fatalf("session after abandon: n=%d err=%v", n, err)
	}
}

// TestFirstRowCostIndependentOfResultSize: the first row of a query
// that fetches once per row leaves after the same network work at 200
// items as at 2,000, while draining grows with the result. Anything on
// the path that materialized before streaming would make the first row
// cost the whole drain.
func TestFirstRowCostIndependentOfResultSize(t *testing.T) {
	var firstMsgs []int64
	for _, items := range []int{200, 2000} {
		sys, views := streamSystem(t, items)
		rows, err := newSession(t, sys, views).Query(context.Background(), perRowFetchQ, WithNoOptimize())
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("%d items: no first row: %v", items, rows.Err())
		}
		first := sys.Net.Stats().Messages
		n := 1
		for rows.Next() {
			n++
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		drain := sys.Net.Stats().Messages
		t.Logf("%d items: %d messages by the first row, %d by the last", items, first, drain)
		if n != items || drain < 2*first {
			t.Errorf("%d items: %d rows, %d messages by the first row, %d by the last", items, n, first, drain)
		}
		firstMsgs = append(firstMsgs, first)
	}
	if firstMsgs[0] != firstMsgs[1] {
		t.Errorf("messages by the first row grew with the result: %v", firstMsgs)
	}
}

// TestCancelMidStream: canceling the call context between pulls stops
// the stream with ErrCanceled.
func TestCancelMidStream(t *testing.T) {
	sys, views := streamSystem(t, 50)
	sess := newSession(t, sys, views)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := sess.Query(ctx, perRowFetchQ, WithNoOptimize())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("row %d: %v", i, rows.Err())
		}
	}
	before := sys.Net.Stats().Messages
	cancel()
	for rows.Next() {
		// at most one buffered row (the eagerly-pulled first row has
		// long been consumed); the stream must fail promptly
	}
	if err := rows.Err(); !errors.Is(err, ErrCanceled) {
		t.Errorf("Err after cancel = %v, want ErrCanceled", err)
	}
	if after := sys.Net.Stats().Messages; after != before {
		t.Errorf("evaluation continued after cancel: %d messages", after-before)
	}
	_ = rows.Close()
}

// TestCancelInsideScan: a cancel that lands while the evaluator is
// between rows — here in a join that examines 2,000² candidate tuples
// and accepts none — fails the statement with ErrCanceled shortly after
// the cancel, instead of after the scan, and unpins the store.
func TestCancelInsideScan(t *testing.T) {
	sys, views := streamSystem(t, 0)
	client, _ := sys.Peer("client")
	catalog := workload.Catalog(workload.CatalogSpec{Items: 2000, PriceMax: 1000, Seed: 1})
	if err := client.InstallDocument("c", catalog); err != nil {
		t.Fatal(err)
	}
	sess := newSession(t, sys, views)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceledAt := make(chan time.Time, 1)
	timer := time.AfterFunc(20*time.Millisecond, func() {
		canceledAt <- time.Now()
		cancel()
	})
	defer timer.Stop()
	rows, err := sess.Query(ctx, `for $i in doc("c")/item for $j in doc("c")/item
		where $i/@id = "nope" and $j/@id = "nope" return $i`)
	if err == nil {
		for rows.Next() {
			t.Error("the join accepted a tuple")
		}
		err = rows.Err()
		_ = rows.Close()
	}
	late := time.Since(<-canceledAt)
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	// Measured: under a millisecond. The bound leaves room for a loaded
	// host and is still well inside the 2 s the scan runs for.
	if late > time.Second {
		t.Errorf("statement failed %v after the cancel, want it well inside the scan's run time", late)
	}
	if n := client.PinnedEpochs(); n != 0 {
		t.Errorf("%d epochs still pinned after the canceled statement", n)
	}
}

// TestPlanCacheLRUEviction: among equal-benefit shapes the cache cap
// evicts least-recently-used first (the cost-weighted policy falls
// back to LRU on score ties); touching a shape keeps it warm. See
// TestPlanCacheCostWeightedEviction for the benefit-driven case.
func TestPlanCacheLRUEviction(t *testing.T) {
	sys, views := testSystem(t)
	sess, err := NewLocal(sys, views, "client", WithPlanCacheSize(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	shape := func(i int) string {
		return fmt.Sprintf(`for $i in doc("catalog")/item where $i/price < %d return $i/name`, 10+i)
	}
	run := func(i int) {
		t.Helper()
		rows, err := sess.Query(ctx, shape(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rows.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		run(i)
	}
	if got := sess.PlanCacheLen(); got != 4 {
		t.Fatalf("cache len = %d", got)
	}
	run(0) // keep shape 0 warm: LRU order is now 0,3,2,1
	run(4) // evicts shape 1
	run(5) // evicts shape 2
	st := sess.Stats()
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if got := sess.PlanCacheLen(); got != 4 {
		t.Errorf("cache len = %d, want 4", got)
	}
	hitsBefore := sess.Stats().Hits
	run(0) // still cached
	if got := sess.Stats().Hits; got != hitsBefore+1 {
		t.Errorf("warm shape missed: hits %d → %d", hitsBefore, got)
	}
	missesBefore := sess.Stats().Misses
	run(1) // was evicted → re-plans
	if got := sess.Stats().Misses; got != missesBefore+1 {
		t.Errorf("evicted shape should miss: misses %d → %d", missesBefore, got)
	}
}

// TestPlanCacheDefaultCap: an un-optioned session uses the default cap
// and never grows beyond it.
func TestPlanCacheDefaultCap(t *testing.T) {
	sys, views := testSystem(t)
	sess := newSession(t, sys, views)
	ctx := context.Background()
	for i := 0; i < DefaultPlanCacheSize+20; i++ {
		src := fmt.Sprintf(`for $i in doc("catalog")/item where $i/price < %d return $i/name`, 1000+i)
		rows, err := sess.Query(ctx, src, WithMaxPlans(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sess.PlanCacheLen(); got != DefaultPlanCacheSize {
		t.Errorf("cache len = %d, want %d", got, DefaultPlanCacheSize)
	}
	if st := sess.Stats(); st.Evictions != 20 {
		t.Errorf("evictions = %d, want 20", st.Evictions)
	}
}
