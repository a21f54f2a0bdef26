package xmltree_test

import (
	"fmt"
	"math/rand"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// TestKeptEncodingsMatchFresh is the differential check of the kept
// encodings: on every FuzzParse seed document and a workload catalog,
// installed at a peer and then written by 40 generated commits, every
// node's kept bytes equal a fresh encoding of the node, and no node of
// a commit's cloned spine keeps any until it is encoded again.
func TestKeptEncodingsMatchFresh(t *testing.T) {
	docs := []*xmltree.Node{workload.Catalog(workload.CatalogSpec{Items: 40, PriceMax: 100, DescWords: 3, Seed: 5})}
	for _, in := range xmltree.ParseCorpus() {
		if n, err := xmltree.Parse(in); err == nil && n.Kind == xmltree.ElementNode {
			docs = append(docs, n)
		}
	}
	r := rand.New(rand.NewSource(50))
	kept := 0
	for d, doc := range docs {
		p := peer.New("p")
		if err := p.InstallDocument("d", doc); err != nil {
			t.Fatal(err)
		}
		// encodeAll encodes every node of the current root in a random
		// order under its budget and checks every node's kept bytes.
		encodeAll := func(when string) (*xmltree.Node, uint64) {
			h := p.Snapshot()
			defer h.Release()
			root, _ := h.Root("d")
			var nodes []*xmltree.Node
			root.Walk(func(n *xmltree.Node) bool { nodes = append(nodes, n); return true })
			for _, i := range r.Perm(len(nodes)) {
				if _, err := xmltree.AppendStored(nil, nodes[i], h.Budget("d"), i%2 == 0); err != nil && err != xmltree.ErrLineBreak {
					t.Fatalf("doc %d %s: %v", d, when, err)
				}
			}
			for _, n := range nodes {
				if m := xmltree.Kept(n); m != nil {
					kept++
					if fresh := xmltree.Serialize(xmltree.DeepCopy(n)); string(m) != fresh {
						t.Fatalf("doc %d %s: n%d keeps %q, a fresh encoding is %q", d, when, n.ID, m, fresh)
					}
				}
			}
			return root, h.Epoch()
		}
		root, epoch := encodeAll("after install")
		for step, k := 0, 1000; step < 40; step, k = step+1, k+1 {
			e := workload.Edit{Parent: root.ID, Tree: workload.EditItem(k)}
			if len(root.ChildElements()) > 0 {
				e = workload.NextEdit(r, root, k)
			}
			if err := p.Write(func(tx *peer.Tx) error { return applyEdit(tx, e) }); err != nil {
				t.Fatalf("doc %d, %s: %v", d, e.What, err)
			}
			h := p.Snapshot()
			commits, ok := h.Changes("d", epoch)
			next, _ := h.Root("d")
			h.Release()
			if !ok || len(commits) != 1 {
				t.Fatalf("doc %d, %s: %d commits, %v", d, e.What, len(commits), ok)
			}
			for _, id := range commits[0].Spine {
				if n := next.FindByID(id); n == nil || xmltree.Kept(n) != nil {
					t.Fatalf("doc %d, %s: spine node n%d is %v or keeps an encoding", d, e.What, id, n)
				}
			}
			root, epoch = encodeAll(fmt.Sprintf("after commit %d (%s)", step+1, e.What))
		}
	}
	if kept == 0 {
		t.Fatal("no node kept an encoding")
	}
}

// applyEdit makes a generated edit in tx.
func applyEdit(tx *peer.Tx, e workload.Edit) error {
	switch {
	case e.Child == 0:
		return tx.Append(e.Parent, e.Tree)
	case e.Tree == nil:
		return tx.Remove(e.Parent, e.Child)
	}
	return tx.Replace(e.Parent, e.Child, e.Tree)
}

// TestKeptBytesWithinRootSize: rows streamed from a pinned root keep
// their encodings, and all the encodings kept over the tree weigh at
// most its serialized size, whichever rows were asked for first.
func TestKeptBytesWithinRootSize(t *testing.T) {
	for _, order := range [][]string{
		{`doc("catalog")`, `doc("catalog")/item`, `doc("catalog")/item/name`},
		{`doc("catalog")/item/name`, `doc("catalog")/item`, `doc("catalog")`},
	} {
		sys := core.NewSystem(netsim.New())
		defer sys.Close()
		p := sys.MustAddPeer("store")
		catalog := workload.Catalog(workload.CatalogSpec{Items: 200, PriceMax: 1000, DescWords: 10, Seed: 1})
		if err := p.InstallDocument("catalog", catalog); err != nil {
			t.Fatal(err)
		}
		size, _ := p.DocumentBytes("catalog")
		for _, src := range order {
			for run := 0; run < 2; run++ {
				cur, err := sys.EvalCursor("store", &core.Query{Q: xquery.MustParse(src), At: "store"})
				if err != nil {
					t.Fatal(err)
				}
				for {
					row, err := cur.NextRow()
					if err != nil {
						t.Fatal(err)
					}
					if row.IsZero() {
						break
					}
					if _, err := row.AppendLine(nil); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		h := p.Snapshot()
		root, _ := h.Root("catalog")
		h.Release()
		total, nodes := 0, 0
		root.Walk(func(n *xmltree.Node) bool {
			if m := xmltree.Kept(n); m != nil {
				total, nodes = total+len(m), nodes+1
			}
			return true
		})
		t.Logf("%s first: %d nodes keep %d B; the root is %d B", order[0], nodes, total, size)
		if nodes == 0 || total > size {
			t.Errorf("%s first: %d nodes keep %d B, want some and at most the root's %d B", order[0], nodes, total, size)
		}
	}
}
