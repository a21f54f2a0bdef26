package session

import (
	"context"
	"sync"
	"testing"

	"axml/internal/peer"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// TestDeleteStatementIsAtomic: a 500-node delete is one transaction. A
// reader pinning snapshots and a reader resolving the live document
// beside it only ever count 0 or 500 items gone.
func TestDeleteStatementIsAtomic(t *testing.T) {
	const items, doomed = 600, 500
	p := peer.New("data")
	root := xmltree.E("catalog")
	for i := 0; i < items; i++ {
		item := xmltree.E("item")
		if i%6 != 0 {
			item.SetAttr("old", "yes")
		}
		root.AppendChild(item)
	}
	if err := p.InstallDocument("catalog", root); err != nil {
		t.Fatal(err)
	}
	upd, _, err := ParseUpdate(`delete doc("catalog")/item[@old]`)
	if err != nil {
		t.Fatal(err)
	}
	count := func(resolve xquery.DocResolver) (int, error) {
		r, err := resolve("catalog")
		if err != nil {
			return 0, err
		}
		return len(r.ChildElementsByLabel("item")), nil
	}
	readers := map[string]func() (int, error){
		"snapshot": func() (int, error) {
			h := p.Snapshot()
			defer h.Release()
			return count(h.Resolver())
		},
		"live": func() (int, error) { return count(p.Resolver()) },
	}
	done := make(chan struct{})
	var started, finished sync.WaitGroup
	for name, read := range readers {
		started.Add(1)
		finished.Add(1)
		go func() {
			defer finished.Done()
			for first := true; ; first = false {
				n, err := read()
				if first {
					started.Done()
				}
				if err != nil {
					t.Error(err)
					return
				}
				if n != items && n != items-doomed {
					t.Errorf("the %s reader saw %d items gone", name, items-n)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	started.Wait()
	n, err := ApplyUpdate(p, upd)
	close(done)
	finished.Wait()
	if err != nil || n != doomed {
		t.Fatalf("delete = %d, %v; want %d removals", n, err, doomed)
	}
}

// TestSnapshotIsolationFreezesStream pins a statement to one epoch:
// rows keep coming from the pre-mutation store even though a writer
// commits mid-stream, and the pin is dropped when the stream ends.
func TestSnapshotIsolationFreezesStream(t *testing.T) {
	sys, views := testSystem(t)
	sess, err := NewLocal(sys, views, "data")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := sys.Peer("data")
	root := docRoot(t, data, "catalog")
	rootID := root.ID
	before := len(root.Children)

	rows, err := sess.Query(context.Background(),
		`for $i in doc("catalog")/item return $i/name`, WithSnapshotIsolation())
	if err != nil {
		t.Fatal(err)
	}
	if got := data.PinnedEpochs(); got != 1 {
		t.Errorf("PinnedEpochs with open snapshot stream = %d, want 1", got)
	}

	// Commit while the stream is open: the pinned epoch must not see it.
	if err := data.AddChild(rootID, xmltree.MustParse(
		`<item><name>late</name><price>1</price></item>`)); err != nil {
		t.Fatal(err)
	}

	forest, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != before {
		t.Errorf("snapshot stream yielded %d rows, want %d (pre-mutation)", len(forest), before)
	}
	for _, n := range forest {
		if n.TextContent() == "late" {
			t.Error("snapshot stream leaked a row committed after the pin")
		}
	}
	if got := data.PinnedEpochs(); got != 0 {
		t.Errorf("PinnedEpochs after stream drained = %d, want 0", got)
	}

	// The next statement sees the new epoch.
	rows2, err := sess.Query(context.Background(),
		`for $i in doc("catalog")/item return $i/name`, WithSnapshotIsolation())
	if err != nil {
		t.Fatal(err)
	}
	forest2, err := rows2.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(forest2) != before+1 {
		t.Errorf("post-mutation stream yielded %d rows, want %d", len(forest2), before+1)
	}
}

// TestSnapshotIsolationReleasesOnClose checks the abandoned-stream
// path: closing Rows mid-stream drops the epoch pin.
func TestSnapshotIsolationReleasesOnClose(t *testing.T) {
	sys, views := testSystem(t)
	sess, err := NewLocal(sys, views, "data")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := sys.Peer("data")

	rows, err := sess.Query(context.Background(),
		`for $i in doc("catalog")/item return $i`, WithSnapshotIsolation())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no first row")
	}
	if got := data.PinnedEpochs(); got != 1 {
		t.Errorf("PinnedEpochs mid-stream = %d, want 1", got)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if got := data.PinnedEpochs(); got != 0 {
		t.Errorf("PinnedEpochs after Close = %d, want 0", got)
	}
}

// TestSnapshotReadSeesAcknowledgedWrite is the order of a
// snapshot-isolated read over a view: the view is refreshed first and
// the epoch pinned after, so a write committed before the read is in
// the pinned epoch. Pinning first (the defect this guards against)
// served the view as it stood before the refresh.
func TestSnapshotReadSeesAcknowledgedWrite(t *testing.T) {
	sys, views := testSystem(t)
	if err := views.Define("cheap",
		`for $i in doc("catalog")/item where $i/price < 100 return $i`, "client"); err != nil {
		t.Fatal(err)
	}
	sess := newSession(t, sys, views)
	client, _ := sys.Peer("client")
	ctx := context.Background()

	// thing-1 costs 500; the write moves it across the view's boundary.
	if _, err := sess.Exec(ctx,
		`replace doc("catalog")/item[name="thing-1"]/price with <price>7</price>`); err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(ctx, selectQ, WithSnapshotIsolation(), WithConsistentView())
	if err != nil {
		t.Fatal(err)
	}
	forest, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, n := range forest {
		seen = seen || n.TextContent() == "thing-1"
	}
	if !seen {
		t.Errorf("snapshot read of the view missed a write committed before it (%d rows)", len(forest))
	}
	if got := client.PinnedEpochs(); got != 0 {
		t.Errorf("PinnedEpochs after stream drained = %d, want 0", got)
	}
}
