package peer

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

var idShape = xquery.Shape{For: "item", Key: "@id"}

// lookupRows evaluates q over h's documents, with the handle's value
// indexes or, with indexed unset, by scanning, and serializes the rows.
func lookupRows(t testing.TB, h *Handle, q *xquery.Query, indexed bool) []string {
	t.Helper()
	env := &xquery.Env{Resolve: h.Resolver()}
	if indexed {
		env.Index = h
	}
	out, err := q.Eval(env)
	if err != nil {
		t.Error(err) // t.Fatal would not stop a reader goroutine
		return nil
	}
	rows := make([]string, len(out))
	for i, n := range out {
		rows[i] = xmltree.Serialize(n)
	}
	return rows
}

// TestIndexFirstReadersShareOneBuild: readers racing on the first
// lookup of a newly published root, each through a handle of its own,
// all get the one index that was built, and the root is charged for it
// once.
func TestIndexFirstReadersShareOneBuild(t *testing.T) {
	const readers = 8
	p := New("p")
	if err := p.InstallDocument("catalog", workload.Catalog(workload.CatalogSpec{Items: 500, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	got := make([]*xquery.ValueIndex, readers)
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := p.Snapshot()
			defer h.Release()
			root, _ := h.Root("catalog")
			got[r], _ = h.Index("catalog", root, idShape)
		}()
	}
	wg.Wait()
	for r, idx := range got {
		if idx == nil || idx != got[0] {
			t.Fatalf("reader %d got index %p, reader 0 got %p", r, idx, got[0])
		}
	}
	if n := len(got[0].Lookup("42")); n != 1 {
		t.Errorf("@id 42 has %d candidates, want 1", n)
	}
	h := p.Snapshot()
	defer h.Release()
	if charged := h.roots["catalog"].charged; charged != 501 {
		t.Errorf("root charged %d, want 501: 500 entries and the shape", charged)
	}
}

// TestIndexedLookupsBesideWriter: readers look items up by @id while a
// writer replaces and appends items. Every commit publishes a root
// whose first reader builds its own index, so each reader's indexed
// rows are its epoch's scan, and the writer never waits on a build.
func TestIndexedLookupsBesideWriter(t *testing.T) {
	const (
		items   = 200
		writes  = 100
		readers = 4
		reads   = 50
	)
	p := New("p")
	c := xmltree.E("c")
	for k := range items {
		c.AppendChild(workload.EditItem(k))
	}
	if err := p.InstallDocument("c", c); err != nil {
		t.Fatal(err)
	}
	rootID := c.ID
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := items; k < items+writes; k++ {
			err := p.Write(func(tx *Tx) error {
				root, _ := tx.root("c")
				// Item k replaces the item with key k%items, and a
				// second item with that key lands at the end.
				if err := tx.Replace(rootID, root.Children[k%items].ID, workload.EditItem(k%items)); err != nil {
					return err
				}
				return tx.Append(rootID, workload.EditItem(k%items))
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range reads {
				q := xquery.MustParse(fmt.Sprintf(`for $i in doc("c")/item where $i/@id = "%d" return $i`, (r*reads+i)%items))
				h := p.Snapshot()
				indexed, scanned := lookupRows(t, h, q, true), lookupRows(t, h, q, false)
				h.Release()
				if len(indexed) == 0 || !slices.Equal(indexed, scanned) {
					errs <- fmt.Errorf("%s: indexed %q, scanned %q", q, indexed, scanned)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestIndexBoundedByTree: a client asking for shape after shape cannot
// grow a root's indexes past its node count. Each shape that does not
// fit is answered by scanning, with the same rows.
func TestIndexBoundedByTree(t *testing.T) {
	p := New("p")
	c := xmltree.E("c")
	for k := range 20 {
		c.AppendChild(workload.EditItem(k))
	}
	if err := p.InstallDocument("c", c); err != nil {
		t.Fatal(err)
	}
	h := p.Snapshot()
	defer h.Release()
	root, _ := h.Root("c")
	nodes := root.NodeCount() // 101: the root and 5 per item
	indexed := 0
	for i := range 61 {
		key := fmt.Sprintf("name/x%d", i) // a key no item has
		switch i {
		case 0:
			key = "@id"
		case 1:
			key = "name"
		case 47:
			key = "price"
		}
		q := xquery.MustParse(fmt.Sprintf(`for $i in doc("c")/item where $i/%s = "7" return $i`, key))
		if got, want := lookupRows(t, h, q, true), lookupRows(t, h, q, false); !slices.Equal(got, want) {
			t.Errorf("%s: indexed %q, scanned %q", q, got, want)
		}
		_, ok := h.Index("c", root, xquery.Shape{For: "item", Key: key})
		if ok {
			indexed++
		}
		if charged := h.roots["c"].charged; charged > nodes || key == "price" && ok {
			t.Fatalf("after %d shapes (%s indexed: %v) the root holds %d entries of %d", i+1, key, ok, charged, nodes)
		}
	}
	// @id and name hold 20 entries each and every shape asked is charged
	// one more: 42, then 87 after 45 empty shapes. price's 20 entries do
	// not fit the 13 left, so it is scanned; 13 more empty shapes fill
	// the budget.
	if charged := h.roots["c"].charged; indexed != 60 || charged != nodes {
		t.Errorf("%d shapes indexed, %d of %d entries charged; want 60 and %d", indexed, charged, nodes, nodes)
	}
}
