package wire

import (
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"axml/internal/peer"
	"axml/internal/session"
	"axml/internal/workload"
	"axml/internal/xmltree"
)

// TestKeptRowsBesideWriter: readers stream the same stored rows, over
// QUERYX at the served peer and through an evaluation delegated to a
// second peer, while a writer commits generated edits at both. The
// first reader of a node keeps its encoding and later ones copy it;
// every reply still equals a fresh serialization of one epoch's rows.
func TestKeptRowsBesideWriter(t *testing.T) {
	const commits, readers, repliesEach = 40, 2, 8
	store, views := newStore(t, nil)
	data := views.System().MustAddPeer("data")
	at := map[string]*peer.Peer{"near": store, "far": data}
	for name, p := range at {
		if err := p.InstallDocument(name, workload.Catalog(workload.CatalogSpec{Items: 30, PriceMax: 100, DescWords: 3, Seed: 9})); err != nil {
			t.Fatal(err)
		}
	}
	srcs := []string{`doc("near")/item`, `doc("near")`, `doc("far")/item`}
	local, err := session.NewLocal(views.System(), views, store.ID)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	if rows := delegatedRows(t, local, srcs[2]); rows != 30 {
		t.Fatalf("data evaluated %d rows, want all 30", rows)
	}

	// epochs holds, for every epoch of each document, the fresh
	// serialization of each query's rows.
	epochs := map[string]bool{}
	record := func(name string) *xmltree.Node {
		h := at[name].Snapshot()
		root, err := h.Root(name)
		h.Release()
		if err != nil {
			t.Fatal(err)
		}
		fresh := xmltree.DeepCopy(root)
		var items strings.Builder
		for _, item := range fresh.ChildElementsByLabel("item") {
			items.WriteString(xmltree.Serialize(item))
		}
		epochs[`doc("`+name+`")/item:`+items.String()] = true
		epochs[`doc("`+name+`"):`+xmltree.Serialize(fresh)] = true
		return root
	}
	roots := map[string]*xmltree.Node{"near": record("near"), "far": record("far")}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveOn(t, &Server{Peer: store, Views: views}, l)
	// Each reader goes on until the writer is done, and the writer until
	// each reader has had replies enough to overlap it.
	var wg sync.WaitGroup
	var busy atomic.Int64
	done := make(chan struct{})
	got := make([][]string, readers)
	for i := range got {
		c, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		wg.Add(1)
		busy.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				if n == repliesEach*len(srcs) {
					busy.Add(-1)
				}
				select {
				case <-done:
					return
				default:
				}
				src := srcs[n%len(srcs)]
				rows, err := c.QueryAll(src)
				if err != nil {
					got[i] = append(got[i], "error: "+err.Error())
					if n < repliesEach*len(srcs) {
						busy.Add(-1)
					}
					return
				}
				var b strings.Builder
				b.WriteString(src + ":")
				for _, r := range rows {
					b.WriteString(xmltree.Serialize(r))
				}
				got[i] = append(got[i], b.String())
			}
		}()
	}
	r := rand.New(rand.NewSource(40))
	for k := 0; k < commits || busy.Load() > 0; k++ {
		for _, name := range []string{"near", "far"} {
			e := workload.NextEdit(r, roots[name], 100+k)
			if err := at[name].Write(func(tx *peer.Tx) error { return applyEdit(tx, e) }); err != nil {
				t.Fatalf("%s: %v", e.What, err)
			}
			roots[name] = record(name)
		}
	}
	close(done)
	wg.Wait()
	for i, replies := range got {
		for _, reply := range replies {
			if !epochs[reply] {
				t.Errorf("reader %d: a reply is no epoch's rows: %.300s", i, reply)
			}
		}
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
