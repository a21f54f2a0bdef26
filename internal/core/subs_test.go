package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/service"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// muteWakes stops the background wakes of every open stream, so that
// the test's own steps alone move them, and returns the streams.
func muteWakes(sys *System) []*stream {
	sys.mu.RLock()
	defer sys.mu.RUnlock()
	for _, st := range sys.subs {
		st.unwatch()
	}
	return slices.Clone(sys.subs)
}

// streamFixture registers body as a continuous service of a "store"
// peer holding catalog, calls it with a forward target in a "client"
// peer's "results" document, and mutes the stream's wakes.
func streamFixture(t *testing.T, catalog *xmltree.Node, body string) (*System, *peer.Peer, *peer.Peer, *stream) {
	t.Helper()
	sys := NewSystem(netsim.New())
	t.Cleanup(sys.Close)
	client, store := sys.MustAddPeer("client"), sys.MustAddPeer("store")
	if err := store.InstallDocument("catalog", catalog); err != nil {
		t.Fatal(err)
	}
	if err := store.RegisterService(&service.Service{
		Name: "watch", Provider: store.ID, Body: xquery.MustParse(body), Continuous: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.InstallDocument("results", xmltree.E("results")); err != nil {
		t.Fatal(err)
	}
	to := peer.NodeRef{Peer: client.ID, Node: docRoot(t, client, "results").ID}
	if _, err := sys.Eval(client.ID, &ServiceCall{Provider: store.ID, Service: "watch", Forward: []peer.NodeRef{to}}); err != nil {
		t.Fatal(err)
	}
	subs := muteWakes(sys)
	if len(subs) != 1 {
		t.Fatalf("%d streams open, want 1", len(subs))
	}
	return sys, client, store, subs[0]
}

// write commits fn as one transaction on the store's catalog.
func write(t *testing.T, store *peer.Peer, fn func(tx *peer.Tx, catalog *xmltree.Node) error) {
	t.Helper()
	catalog := docRoot(t, store, "catalog")
	if err := store.Write(func(tx *peer.Tx) error { return fn(tx, catalog) }); err != nil {
		t.Fatal(err)
	}
}

// TestStreamStepCounts: a step over a 2,000-item catalog evaluates the
// body for the sources the commit touched, and ships only what grows
// the result multiset.
func TestStreamStepCounts(t *testing.T) {
	_, client, store, st := streamFixture(t,
		workload.Catalog(workload.CatalogSpec{Items: 2000, PriceMax: 1000, Seed: 3}),
		`for $i in doc("catalog")/item where $i/price < 100 return <hit>{$i/@id}{$i/name/text()}</hit>`)
	hits := func() int { return len(docRoot(t, client, "results").Children) }
	initial := hits()
	var cheap *xmltree.Node
	for _, item := range docRoot(t, store, "catalog").Children {
		if price, _ := strconv.Atoi(item.FirstChildElement("price").TextContent()); price < 100 {
			cheap = item
			break
		}
	}
	if initial == 0 || cheap == nil {
		t.Fatalf("fixture has %d hits, cheap item %v", initial, cheap)
	}
	for _, c := range []struct {
		name             string
		edit             func(tx *peer.Tx, catalog *xmltree.Node) error
		derived, shipped int
		hits             int
	}{
		{"matching insert", func(tx *peer.Tx, c *xmltree.Node) error {
			return tx.Append(c.ID, xmltree.MustParse(`<item id="new"><name>stool</name><price>9</price></item>`))
		}, 1, 1, initial + 1},
		{"non-matching insert", func(tx *peer.Tx, c *xmltree.Node) error {
			return tx.Append(c.ID, xmltree.MustParse(`<item id="dear"><name>sofa</name><price>900</price></item>`))
		}, 1, 0, initial + 1},
		{"identical replace", func(tx *peer.Tx, c *xmltree.Node) error {
			return tx.Replace(c.ID, cheap.ID, xmltree.DeepCopy(cheap))
		}, 1, 0, initial + 1},
		{"delete", func(tx *peer.Tx, c *xmltree.Node) error {
			return tx.Remove(c.ID, c.Children[len(c.Children)-2].ID)
		}, 0, 0, initial + 1},
	} {
		write(t, store, c.edit)
		ev, n, err := st.step(true)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := len(ev.Additions); got != c.derived || n != c.shipped {
			t.Errorf("%s: derived %d sources and shipped %d rows, want %d and %d", c.name, got, n, c.derived, c.shipped)
		}
		if got := hits(); got != c.hits {
			t.Errorf("%s: target holds %d rows, want %d", c.name, got, c.hits)
		}
	}
}

// TestStreamRetriesADownTarget: rows a step could not ship while the
// forward target was down ship on the first step after it is back.
func TestStreamRetriesADownTarget(t *testing.T) {
	sys, client, store, _ := streamFixture(t, xmltree.MustParse(catalogXML),
		`for $i in doc("catalog")/item where $i/price < 100 return <hit>{$i/name/text()}</hit>`)
	hits := func() int { return len(docRoot(t, client, "results").ChildElementsByLabel("hit")) }
	if got := hits(); got != 2 {
		t.Fatalf("initial hits = %d, want 2", got)
	}
	sys.Net.SetDown(client.ID, true)
	write(t, store, func(tx *peer.Tx, c *xmltree.Node) error {
		return tx.Append(c.ID, xmltree.MustParse(`<item id="4"><name>stool</name><price>9</price></item>`))
	})
	if n, err := sys.PumpSubscriptions(); !errors.Is(err, netsim.ErrPeerDown) || n != 0 {
		t.Fatalf("pump with the target down = %d, %v; want 0 and the peer-down error", n, err)
	}
	sys.Net.SetDown(client.ID, false)
	n, err := sys.PumpSubscriptions()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("pump after recovery shipped %d rows, want 1", n)
	}
	if got := hits(); got != 3 {
		t.Errorf("hits after recovery = %d, want 3", got)
	}
}

// TestStreamMatchesFullDiff: over generated commits — appends, removals,
// replacements, identical re-inserts and duplicate content — every step
// ships exactly the multiset a full evaluation diffed against the most
// ever shipped of each result would: the positive-AXML stream, which
// never shrinks.
func TestStreamMatchesFullDiff(t *testing.T) {
	const body = `for $i in doc("catalog")/item where $i/price < 50 return <hit>{$i/name/text()}</hit>`
	names := []string{"chair", "desk", "lamp", "stool"}
	item := func(r *rand.Rand) *xmltree.Node {
		return xmltree.E("item", xmltree.E("name", names[r.Intn(len(names))]),
			xmltree.E("price", fmt.Sprint(10*r.Intn(8))))
	}
	r := rand.New(rand.NewSource(7))
	seed := xmltree.E("catalog")
	for range 12 {
		seed.AppendChild(item(r))
	}
	_, client, store, st := streamFixture(t, seed, body)

	// The oracle: evaluate the whole body and ship the occurrences by
	// which a result now occurs more often than it ever was shipped.
	q := xquery.MustParse(body)
	most := map[xmltree.Digest]int{}
	oracle := func() []xmltree.Digest {
		h := store.Snapshot()
		defer h.Release()
		full, err := q.Eval(&xquery.Env{Resolve: h.Resolver()})
		if err != nil {
			t.Fatal(err)
		}
		counts := map[xmltree.Digest]int{}
		var out []xmltree.Digest
		for _, n := range full {
			d := xmltree.Hash(n)
			if counts[d]++; counts[d] > most[d] {
				most[d] = counts[d]
				out = append(out, d)
			}
		}
		return out
	}
	oracle() // the call delivered the initial result

	edits := []func(tx *peer.Tx, c *xmltree.Node) error{
		func(tx *peer.Tx, c *xmltree.Node) error { return tx.Append(c.ID, item(r)) },
		func(tx *peer.Tx, c *xmltree.Node) error {
			return tx.Remove(c.ID, c.Children[r.Intn(len(c.Children))].ID)
		},
		func(tx *peer.Tx, c *xmltree.Node) error {
			return tx.Replace(c.ID, c.Children[r.Intn(len(c.Children))].ID, item(r))
		},
		func(tx *peer.Tx, c *xmltree.Node) error { // same content, new identifier
			old := c.Children[r.Intn(len(c.Children))]
			return tx.Replace(c.ID, old.ID, xmltree.DeepCopy(old))
		},
		func(tx *peer.Tx, c *xmltree.Node) error { // duplicate content
			return tx.Append(c.ID, xmltree.DeepCopy(c.Children[r.Intn(len(c.Children))]))
		},
	}
	// Step i follows i%3 commits: none, one, or two the step takes
	// together — 60 commits over 90 steps.
	shipped := 0
	for i := range 90 {
		for range i % 3 {
			write(t, store, func(tx *peer.Tx, c *xmltree.Node) error {
				if len(c.Children) < 4 {
					return tx.Append(c.ID, item(r))
				}
				return edits[r.Intn(len(edits))](tx, c)
			})
		}
		before := len(docRoot(t, client, "results").Children)
		if _, _, err := st.step(true); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		var got []xmltree.Digest
		for _, n := range docRoot(t, client, "results").Children[before:] {
			got = append(got, xmltree.Hash(n))
		}
		want := oracle()
		slices.SortFunc(got, compareDigests)
		slices.SortFunc(want, compareDigests)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: stream shipped %d rows, the full diff %d", i, len(got), len(want))
		}
		shipped += len(got)
	}
	if shipped != 19 {
		t.Errorf("the steps shipped %d rows, want 19", shipped)
	}
}

func compareDigests(a, b xmltree.Digest) int {
	return slices.Compare(a[:], b[:])
}
