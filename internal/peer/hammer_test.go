package peer

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// TestSnapshotHammer runs N writers, each mutating its own document,
// against M readers streaming through pinned snapshots, under -race.
// The MVCC guarantee under test: a snapshot is one committed epoch of
// the whole store. Mutations are serialized under the peer's write
// lock and each commit swaps root pointers without touching published
// nodes, so a handle's forest must be (a) internally consistent — each
// document's children are the exact prefix 1..k of its writer's
// appends, never torn, never reordered — and (b) frozen — re-reading
// the same handle after many more commits yields the identical forest.
// Together those say the streamed multiset equals the store's state at
// the snapshot instant, i.e. a single epoch's truth.
func TestSnapshotHammer(t *testing.T) {
	const (
		writers         = 4
		readers         = 6
		writesPerWriter = 300
		readsPerReader  = 40
	)
	p := New("hammer")
	rootIDs := make([]xmltree.NodeID, writers)
	for w := 0; w < writers; w++ {
		root := xmltree.E("log")
		if err := p.InstallDocument(docName(w), root); err != nil {
			t.Fatal(err)
		}
		rootIDs[w] = root.ID
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= writesPerWriter; i++ {
				e := xmltree.E("e", strconv.Itoa(i))
				if err := p.AddChild(rootIDs[w], e); err != nil {
					errs <- fmt.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < readsPerReader; i++ {
				if err := checkOneSnapshot(p, writers); err != nil {
					errs <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := p.PinnedEpochs(); got != 0 {
		t.Errorf("PinnedEpochs after hammer = %d, want 0", got)
	}
	// Final state: every writer's full sequence landed.
	for w := 0; w < writers; w++ {
		if got := len(docRoot(t, p, docName(w)).Children); got != writesPerWriter {
			t.Errorf("doc %s final children = %d, want %d", docName(w), got, writesPerWriter)
		}
	}
}

func docName(w int) string { return fmt.Sprintf("d%d", w) }

// checkOneSnapshot pins an epoch, streams every document through the
// real cursor machinery, validates the prefix property, and re-reads
// to prove the handle is frozen while writers keep committing.
func checkOneSnapshot(p *Peer, writers int) error {
	h := p.Snapshot()
	defer h.Release()
	first, err := readAll(h, writers)
	if err != nil {
		return err
	}
	for w, seq := range first {
		for i, v := range seq {
			if v != strconv.Itoa(i+1) {
				return fmt.Errorf("doc %s: child %d = %q, want %q (torn read)",
					docName(w), i, v, strconv.Itoa(i+1))
			}
		}
	}
	// By the time we re-read, other writers have committed more epochs;
	// the pinned view must not have moved.
	second, err := readAll(h, writers)
	if err != nil {
		return err
	}
	for w := range first {
		if len(first[w]) != len(second[w]) {
			return fmt.Errorf("doc %s: snapshot moved: %d then %d children",
				docName(w), len(first[w]), len(second[w]))
		}
	}
	return nil
}

// readAll streams each document's entries through an xquery cursor
// resolving against the handle — the same pull-based path a session
// stream uses.
func readAll(h *Handle, writers int) ([][]string, error) {
	out := make([][]string, writers)
	for w := 0; w < writers; w++ {
		q, err := xquery.Parse(fmt.Sprintf(`for $e in doc(%q)/e return $e`, docName(w)))
		if err != nil {
			return nil, err
		}
		cur, err := q.EvalCursor(context.Background(), &xquery.Env{Resolve: h.Resolver()})
		if err != nil {
			return nil, err
		}
		for {
			n, err := cur.Next()
			if err != nil {
				_ = cur.Close()
				return nil, err
			}
			if n == nil {
				break
			}
			out[w] = append(out[w], n.TextContent())
		}
		if err := cur.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestEpochReclamation checks that pins are dropped when handles are
// released — including handles abandoned mid-read — and that epoch
// churn does not accumulate pinned history.
func TestEpochReclamation(t *testing.T) {
	p := New("reclaim")
	root := xmltree.E("log")
	if err := p.InstallDocument("log", root); err != nil {
		t.Fatal(err)
	}

	// Distinct epochs pin independently.
	h1 := p.Snapshot()
	if err := p.AddChild(root.ID, xmltree.E("e", "1")); err != nil {
		t.Fatal(err)
	}
	h2 := p.Snapshot()
	if h1.Epoch() == h2.Epoch() {
		t.Fatalf("mutation did not advance the epoch: %d", h1.Epoch())
	}
	if got := p.PinnedEpochs(); got != 2 {
		t.Errorf("PinnedEpochs = %d, want 2", got)
	}
	if p.OldestPinAge() <= 0 {
		t.Error("OldestPinAge = 0 with live pins")
	}

	// Release is idempotent; double release must not underflow another
	// handle's pin on the same epoch.
	h3 := p.Snapshot() // same epoch as h2
	h2.Release()
	h2.Release()
	if got := p.PinnedEpochs(); got != 2 {
		t.Errorf("PinnedEpochs after double release = %d, want 2 (h1, h3)", got)
	}
	h3.Release()
	h1.Release()
	if got := p.PinnedEpochs(); got != 0 {
		t.Errorf("PinnedEpochs after all releases = %d, want 0", got)
	}
	if p.OldestPinAge() != 0 {
		t.Error("OldestPinAge != 0 with no pins")
	}

	// Churn: snapshot-mutate-release in a loop must not grow the pin
	// table (old epochs become garbage once unpinned — the GC owns the
	// trees, the table only tracks live handles).
	for i := 0; i < 500; i++ {
		h := p.Snapshot()
		if err := p.AddChild(root.ID, xmltree.E("e", strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Root("log"); err != nil {
			t.Fatal(err)
		}
		h.Release()
		if got := p.PinnedEpochs(); got > 1 {
			t.Fatalf("pin table grew under churn: %d", got)
		}
	}
	if got := p.PinnedEpochs(); got != 0 {
		t.Errorf("PinnedEpochs after churn = %d, want 0", got)
	}
}

// TestCommitBesideOpenCursor: the goroutine streaming from a snapshot
// commits mid-stream, and the commit returns while its cursor is still
// open. Under a store-wide lock held for the life of a stream (the
// pre-MVCC contract) this deadlocks. TestSnapshotHammer checks what
// readers see; this checks that writers never wait on them.
func TestCommitBesideOpenCursor(t *testing.T) {
	const items = 100
	p := New("serve")
	root := xmltree.E("catalog")
	for i := 0; i < items; i++ {
		root.AppendChild(xmltree.E("item", strconv.Itoa(i)))
	}
	if err := p.InstallDocument("catalog", root); err != nil {
		t.Fatal(err)
	}
	q := xquery.MustParse(`for $i in doc("catalog")/item return $i`)
	streamed := make(chan int, 1)
	failed := make(chan error, 1)
	go func() {
		h := p.Snapshot()
		defer h.Release()
		cur, err := q.EvalCursor(context.Background(), &xquery.Env{Resolve: h.Resolver()})
		if err != nil {
			failed <- err
			return
		}
		defer cur.Close() //nolint:errcheck // drained below
		rows := 0
		for {
			n, err := cur.Next()
			if err != nil {
				failed <- err
				return
			}
			if n == nil {
				break
			}
			if rows++; rows == items/2 {
				if err := p.AddChild(root.ID, xmltree.E("item", "new")); err != nil {
					failed <- err
					return
				}
			}
		}
		streamed <- rows
	}()
	select {
	case rows := <-streamed:
		if rows != items {
			t.Errorf("the pinned stream yielded %d rows, want %d", rows, items)
		}
	case err := <-failed:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("a commit blocked behind its own goroutine's open snapshot cursor")
	}
	h := p.Snapshot()
	defer h.Release()
	if n, err := h.NodeCount("catalog"); err != nil || n != 1+2*(items+1) {
		t.Errorf("after the commit the catalog has %d nodes (%v), want %d", n, err, 1+2*(items+1))
	}
}
