package session

// Tests for the session ↔ adaptive-placement seams: the traffic sink,
// the typed ErrViewMoved surfaced when a placement moves under an open
// cursor, and catalog-generation invalidation across migrations
// (including a -race variant with concurrent queries during moves).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/view"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// moveSystem builds client+spare+data peers with a catalog at data, so
// views have somewhere to migrate.
func moveSystem(t *testing.T) (*core.System, *view.Manager) {
	t.Helper()
	return moveSystemN(t, 40)
}

// moveSystemN is moveSystem with n catalog items, every tenth cheap.
func moveSystemN(t *testing.T, n int) (*core.System, *view.Manager) {
	t.Helper()
	net := netsim.New()
	sys := core.NewSystem(net)
	sys.MustAddPeer("client")
	sys.MustAddPeer("spare")
	data := sys.MustAddPeer("data")
	cat := xmltree.E("catalog")
	for i := 0; i < n; i++ {
		price := "500"
		if i%10 == 0 {
			price = "5"
		}
		cat.AppendChild(xmltree.MustParse(fmt.Sprintf(
			`<item><name>thing-%d</name><price>%s</price></item>`, i, price)))
	}
	if err := data.InstallDocument("catalog", cat); err != nil {
		t.Fatal(err)
	}
	views := view.NewManager(sys)
	t.Cleanup(views.Close)
	t.Cleanup(sys.Close)
	return sys, views
}

const viewSrc = `for $i in doc("catalog")/item where $i/price < 100 return $i`

// viewReadQ reads the rows of viewSrc's view "cheap" straight from its
// document; it returns what selectQ returns.
const viewReadQ = `for $i in doc("view:cheap")/item return $i/name`

func forestCounts(forest []*xmltree.Node) map[xmltree.Digest]int {
	out := map[xmltree.Digest]int{}
	for _, n := range forest {
		out[xmltree.Hash(n)]++
	}
	return out
}

func equalCounts(a, b map[xmltree.Digest]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// recordingSink captures ObserveQuery calls.
type recordingSink struct {
	mu    sync.Mutex
	calls []struct {
		at    netsim.PeerID
		shape string
		docs  []string
	}
}

func (r *recordingSink) ObserveQuery(at netsim.PeerID, shape string, docs []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, struct {
		at    netsim.PeerID
		shape string
		docs  []string
	}{at, shape, docs})
}

// TestTrafficSinkObservesViewReads: every execution reports the
// evaluating peer, the shape key and the docs of the chosen plan —
// including the view document after a rewrite.
func TestTrafficSinkObservesViewReads(t *testing.T) {
	sys, views := moveSystem(t)
	if err := views.Define("cheap", viewSrc, "client"); err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	sess, err := NewLocal(sys, views, "client", WithTrafficSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(context.Background(), selectQ)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Collect(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.calls) != 1 {
		t.Fatalf("sink calls = %d, want 1", len(sink.calls))
	}
	call := sink.calls[0]
	if call.at != "client" || call.shape == "" {
		t.Errorf("observed at=%s shape=%q", call.at, call.shape)
	}
	found := false
	for _, d := range call.docs {
		if d == view.DocPrefix+"cheap" {
			found = true
		}
	}
	if !found {
		t.Errorf("plan docs %v do not include the view read", call.docs)
	}
}

// TestErrViewMovedMidStream: a cursor over a view whose placement
// migrates away fails with the typed error, not an opaque one.
func TestErrViewMovedMidStream(t *testing.T) {
	sys, views := moveSystem(t)
	if err := views.Define("cheap", viewSrc, "client"); err != nil {
		t.Fatal(err)
	}
	sess := newSession(t, sys, views)
	rows, err := sess.Query(context.Background(), selectQ)
	if err != nil {
		t.Fatal(err)
	}
	if err := views.Migrate(context.Background(), "cheap", "client", "spare"); err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, ErrViewMoved) {
		t.Fatalf("stream error = %v, want ErrViewMoved", err)
	}
	_ = rows.Close()

	// A fresh call re-plans against the new placement and succeeds.
	rows, err = sess.Query(context.Background(), selectQ)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 4 {
		t.Errorf("re-planned query returned %d rows, want 4", len(forest))
	}
}

// TestErrViewMovedOnDrop: dropping the view mid-stream surfaces the
// same typed error.
func TestErrViewMovedOnDrop(t *testing.T) {
	sys, views := moveSystem(t)
	if err := views.Define("cheap", viewSrc, "client"); err != nil {
		t.Fatal(err)
	}
	sess := newSession(t, sys, views)
	rows, err := sess.Query(context.Background(), selectQ)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if err := views.Drop("cheap"); err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, ErrViewMoved) {
		t.Fatalf("stream error = %v, want ErrViewMoved", err)
	}
}

// TestErrViewMovedWhenTheCopyComesBack: a stream opens while the
// view's only copy is at client, and the copy then leaves and comes
// back — migrated to spare and back, or dropped with its view and
// defined again. The peers holding a copy are the same as when the
// stream opened, but the copy it may be reading was removed, so the
// stream and its guard both report ErrViewMoved.
func TestErrViewMovedWhenTheCopyComesBack(t *testing.T) {
	ctx := context.Background()
	for name, away := range map[string]func(*view.Manager) error{
		"migrate": func(views *view.Manager) error {
			if err := views.Migrate(ctx, "cheap", "client", "spare"); err != nil {
				return err
			}
			return views.Migrate(ctx, "cheap", "spare", "client")
		},
		"redefine": func(views *view.Manager) error {
			if err := views.Drop("cheap"); err != nil {
				return err
			}
			return views.Define("cheap", viewSrc, "client")
		},
	} {
		t.Run(name, func(t *testing.T) {
			sys, views := moveSystem(t)
			if err := views.Define("cheap", viewSrc, "client"); err != nil {
				t.Fatal(err)
			}
			sess := newSession(t, sys, views)
			guard := sess.viewGuard([]string{"cheap"}, views.Removals())
			rows, err := sess.Query(ctx, selectQ)
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			if err := away(views); err != nil {
				t.Fatal(err)
			}
			if ps, _ := views.PlacementsOf("cheap"); len(ps) != 1 || ps[0] != "client" {
				t.Fatalf("placements = %v, want [client]", ps)
			}
			if err := guard(); !errors.Is(err, ErrViewMoved) {
				t.Errorf("guard = %v, want ErrViewMoved", err)
			}
			for rows.Next() {
			}
			if err := rows.Err(); !errors.Is(err, ErrViewMoved) {
				t.Fatalf("stream error = %v, want ErrViewMoved", err)
			}
		})
	}
}

// TestUnrelatedCatalogChangeKeepsStreaming: defining a different view
// mid-stream bumps the generation but must not kill the stream.
func TestUnrelatedCatalogChangeKeepsStreaming(t *testing.T) {
	sys, views := moveSystem(t)
	if err := views.Define("cheap", viewSrc, "client"); err != nil {
		t.Fatal(err)
	}
	sess := newSession(t, sys, views)
	rows, err := sess.Query(context.Background(), selectQ)
	if err != nil {
		t.Fatal(err)
	}
	if err := views.Define("other",
		`for $i in doc("catalog")/item where $i/price < 600 return $i/price`, "spare"); err != nil {
		t.Fatal(err)
	}
	forest, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 4 {
		t.Errorf("rows = %d, want 4", len(forest))
	}
}

// TestReplicationKeepsStreaming: adding a replica of the very view a
// cursor reads is additive — the copy being read still exists, so the
// stream must finish, not die with ErrViewMoved.
func TestReplicationKeepsStreaming(t *testing.T) {
	sys, views := moveSystem(t)
	if err := views.Define("cheap", viewSrc, "client"); err != nil {
		t.Fatal(err)
	}
	sess := newSession(t, sys, views)
	rows, err := sess.Query(context.Background(), selectQ)
	if err != nil {
		t.Fatal(err)
	}
	if err := views.AddPlacement("cheap", "spare"); err != nil {
		t.Fatal(err)
	}
	forest, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 4 {
		t.Errorf("rows = %d, want 4", len(forest))
	}
}

// TestMigrationInvalidatesCachedPlans: a cached plan that read a
// migrated view re-plans on next use and returns the identical
// multiset.
func TestMigrationInvalidatesCachedPlans(t *testing.T) {
	sys, views := moveSystem(t)
	if err := views.Define("cheap", viewSrc, "spare"); err != nil {
		t.Fatal(err)
	}
	sess := newSession(t, sys, views)
	ctx := context.Background()
	collect := func() map[xmltree.Digest]int {
		t.Helper()
		rows, err := sess.Query(ctx, selectQ)
		if err != nil {
			t.Fatal(err)
		}
		forest, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return forestCounts(forest)
	}
	before := collect()
	collect() // second call hits the cache
	st := planCache(sess)
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats before migration = %+v", st)
	}
	if err := views.Migrate(ctx, "cheap", "spare", "client"); err != nil {
		t.Fatal(err)
	}
	after := collect()
	st = planCache(sess)
	if st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (re-plan after the move)", st.Misses)
	}
	if !equalCounts(before, after) {
		t.Error("result multiset changed across the migration")
	}
}

// TestConcurrentQueriesDuringMoveRace hammers a migrating view with
// concurrent queries: every query must either succeed with the exact
// ground-truth multiset or fail with the typed ErrViewMoved — never an
// opaque error, never silently wrong rows.
func TestConcurrentQueriesDuringMoveRace(t *testing.T) {
	queryDuringMoves(t, 40, func(ctx context.Context, views *view.Manager) error {
		ping, pong := netsim.PeerID("spare"), netsim.PeerID("data")
		for i := 0; i < 8; i++ {
			if err := views.Migrate(ctx, "cheap", ping, pong); err != nil {
				return err
			}
			ping, pong = pong, ping
		}
		return nil
	})
}

// TestQueriesAtMoveTargetRace is the same check with the session's own
// peer as the target: copies migrate to the client and back, and a
// replica is added there and dropped. The client resolves the view's
// name in its own store first, so a copy still filling there must not
// answer it. The view holds 100 rows, so each copy takes a while to fill.
func TestQueriesAtMoveTargetRace(t *testing.T) {
	queryDuringMoves(t, 1000, func(ctx context.Context, views *view.Manager) error {
		for i := 0; i < 8; i++ {
			for _, step := range []func() error{
				func() error { return views.Migrate(ctx, "cheap", "spare", "client") },
				func() error { return views.Migrate(ctx, "cheap", "client", "spare") },
				func() error { return views.AddPlacement("cheap", "client") },
				func() error { return views.DropPlacement("cheap", "client") },
			} {
				if err := step(); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// queryDuringMoves defines the view over an n-item catalog at spare and
// runs moves beside four querying workers at client. Each worker runs at
// least 25 queries and keeps going until the moves are done.
func queryDuringMoves(t *testing.T, n int, moves func(context.Context, *view.Manager) error) {
	sys, views := moveSystemN(t, n)
	if err := views.Define("cheap", viewSrc, "spare"); err != nil {
		t.Fatal(err)
	}
	data, _ := sys.Peer("data")
	truthForest, err := data.RunQuery(xquery.MustParse(selectQ))
	if err != nil {
		t.Fatal(err)
	}
	truth := forestCounts(truthForest)

	sess := newSession(t, sys, views)
	ctx := context.Background()
	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	done := make(chan struct{})
	moving := func() bool {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker || moving(); i++ {
				// Every other query names the view's document itself and is
				// evaluated at client as written, so it reads a copy there
				// whenever the client's store holds one.
				src, opts := selectQ, []Option(nil)
				if i%2 == 1 {
					src, opts = viewReadQ, []Option{WithNoOptimize()}
				}
				rows, err := sess.Query(ctx, src, opts...)
				if err != nil {
					if !errors.Is(err, ErrViewMoved) {
						errCh <- fmt.Errorf("query error: %w", err)
						return
					}
					continue
				}
				forest, err := rows.Collect()
				if err != nil {
					if !errors.Is(err, ErrViewMoved) {
						errCh <- fmt.Errorf("stream error: %w", err)
						return
					}
					continue
				}
				if !equalCounts(truth, forestCounts(forest)) {
					errCh <- fmt.Errorf("wrong multiset: %d rows", len(forest))
					return
				}
			}
		}()
	}
	if err := moves(ctx, views); err != nil {
		t.Error(err)
	}
	close(done)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
