package peer

import (
	"errors"
	"fmt"
	"maps"
	"testing"

	"axml/internal/xmltree"
)

// TestWriteIsOneEpoch: the edits of one transaction publish as one
// epoch, with one feed record per edit carrying it, and a spine node two
// edits pass through is copied once — both edits land in the same copy,
// and the sibling off every spine stays shared with the old epoch.
func TestWriteIsOneEpoch(t *testing.T) {
	p, root := feedPeer(t)
	ch, cancel := p.Watch("catalog")
	defer cancel()
	old := p.Snapshot()
	defer old.Release()
	item, other := root.Children[0], root.Children[1]
	price := item.Children[0]
	anchor := p.FreshAnchor("x:landing")

	added := xmltree.E("item")
	note, landed := xmltree.E("note"), xmltree.E("row")
	var copied *xmltree.Node // the item's copy after the first edit below it
	err := p.Write(func(tx *Tx) error {
		if err := tx.Append(root.ID, added); err != nil {
			return err
		}
		if err := tx.Replace(item.ID, price.ID, xmltree.E("price", xmltree.T("5"))); err != nil {
			return err
		}
		copied = p.index[item.ID].node
		if err := tx.Append(item.ID, note); err != nil {
			return err
		}
		return tx.Append(anchor.ID, landed)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Epoch(); got != old.Epoch()+1 {
		t.Fatalf("epoch %d after one transaction from %d", got, old.Epoch())
	}
	select {
	case ev := <-ch:
		if ev != (Change{Doc: "catalog", Epoch: p.Epoch()}) {
			t.Errorf("woken with %+v", ev)
		}
	default:
		t.Error("watcher not woken")
	}
	h := p.Snapshot()
	defer h.Release()
	commits, ok := h.Changes("catalog", old.Epoch())
	if !ok || len(commits) != 3 {
		t.Fatalf("Changes = %d commits, ok=%v; want one per document edit", len(commits), ok)
	}
	for _, c := range commits {
		if c.Epoch != h.Epoch() {
			t.Errorf("commit %+v is not of the transaction's epoch %d", c, h.Epoch())
		}
	}
	now, _ := h.Root("catalog")
	if got := now.Children[0]; got != copied || len(got.Children) != 2 || got.Children[0].TextContent() != "5" {
		t.Errorf("the written item is %s", xmltree.Serialize(got))
	}
	if now.Children[1] != other || now.Children[2] != added {
		t.Error("the untouched item is not shared, or the appended one is missing")
	}
	if was, _ := old.Root("catalog"); was != root || len(was.Children) != 2 || len(item.Children) != 1 {
		t.Error("the pinned epoch moved")
	}
	if a, _ := p.NodeByID(anchor.ID); len(a.Children) != 1 || a.Children[0] != landed {
		t.Error("the anchor's edit did not land")
	}
}

// TestFailedWriteLeavesNoTrace: a transaction whose fn fails after its
// edits — node edits, an install, a drop, a drop and reinstall —
// publishes nothing: the document map, roots, node index, epoch and
// feed are as they were, and the store takes the same edits again.
func TestFailedWriteLeavesNoTrace(t *testing.T) {
	for _, row := range []struct {
		name string
		edit func(tx *Tx, root *xmltree.Node) error
	}{
		{"append, replace, remove", func(tx *Tx, root *xmltree.Node) error {
			item, other := root.Children[0], root.Children[1]
			if err := tx.Append(root.ID, xmltree.E("item")); err != nil {
				return err
			}
			if err := tx.Replace(0, item.Children[0].ID, xmltree.E("price", xmltree.T("5"))); err != nil {
				return err
			}
			return tx.Remove(root.ID, other.ID)
		}},
		{"install", func(tx *Tx, _ *xmltree.Node) error {
			fresh := xmltree.E("fresh")
			if err := tx.Install("fresh", fresh); err != nil {
				return err
			}
			return tx.Append(fresh.ID, xmltree.E("row"))
		}},
		{"drop", func(tx *Tx, root *xmltree.Node) error {
			if err := tx.Replace(0, root.Children[0].Children[0].ID, xmltree.E("price")); err != nil {
				return err
			}
			_, err := tx.Drop("catalog")
			return err
		}},
		{"drop and install", func(tx *Tx, _ *xmltree.Node) error {
			old, err := tx.Drop("catalog")
			if err != nil {
				return err
			}
			if err := tx.Install("moved", old); err != nil {
				return err
			}
			return tx.Install("catalog", xmltree.E("catalog", xmltree.E("item")))
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			p, root := feedPeer(t)
			before := p.Snapshot()
			defer before.Release()
			index := maps.Clone(p.index)
			text := xmltree.Serialize(root)

			boom := errors.New("boom")
			err := p.Write(func(tx *Tx) error {
				if err := row.edit(tx, root); err != nil {
					return err
				}
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("Write = %v, want fn's error", err)
			}
			after := p.Snapshot()
			defer after.Release()
			if after.Epoch() != before.Epoch() {
				t.Errorf("epoch moved %d → %d", before.Epoch(), after.Epoch())
			}
			if !maps.Equal(after.roots, before.roots) || xmltree.Serialize(root) != text {
				t.Errorf("the documents moved: %v", after.Docs())
			}
			if !maps.Equal(p.index, index) {
				t.Error("the node index changed")
			}
			if got, ok := after.Changes("catalog", before.Epoch()); !ok || len(got) != 0 {
				t.Errorf("Changes after the failed transaction = %d commits, ok=%v", len(got), ok)
			}
			if err := p.Write(func(tx *Tx) error { return row.edit(tx, root) }); err != nil {
				t.Errorf("the same edits again: %v", err)
			}
		})
	}
}

// TestCommitAllocations pins what a single-edit commit two levels down
// allocates (the BenchmarkCommit shape, its new subtree included).
func TestCommitAllocations(t *testing.T) {
	p, price := benchStore(t)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		next := xmltree.E("price", xmltree.T(fmt.Sprint(i%1000)))
		if err := p.ReplaceChildByID(0, price, next); err != nil {
			t.Fatal(err)
		}
		price = next.ID
	})
	if allocs > 14 {
		t.Errorf("a single-edit commit allocates %.1f times, budget is 14", allocs)
	}
}
