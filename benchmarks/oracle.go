package main

import (
	"fmt"
	"hash/fnv"
	"strconv"

	datagen "axml/internal/workload"
	"axml/internal/xmltree"
)

// The oracle: expected answers are computed from the seed by the
// generator's own model of the catalog — a flat list of (id, name, price)
// — and never by running the system under test. A reply is compared by
// row count and an order-insensitive digest of its rows.

// item is the generator's model of one catalog entry.
type item struct {
	id    string
	name  string
	price int
}

// model is the generator's model of a catalog document.
type model struct {
	items []item
	// hot lists the indices (into items) point_lookup asks for and pool
	// those the mixed_rw writer updates, both round-robin; drawn from the
	// seed by drawSets.
	hot  []int
	pool []int
	// prices is every item's initial price, ascending: thresholds are
	// looked up by rank in it.
	prices []int
	// static holds staticBelow for each threshold mixed_rw reads with.
	static map[int]answer
}

func catalogSpec(items int, seed int64) datagen.CatalogSpec {
	return datagen.CatalogSpec{Items: items, PriceMax: 1000, DescWords: 10, Seed: seed}
}

// newModel reads the catalog generated from seed into the flat model. It
// walks the tree with plain accessors; no query layer is involved.
func newModel(items int, seed int64) (*model, *xmltree.Node, error) {
	catalog := datagen.Catalog(catalogSpec(items, seed))
	m := &model{}
	for _, it := range catalog.ChildElementsByLabel("item") {
		id, _ := it.Attr("id")
		name := it.FirstChildElement("name")
		price := it.FirstChildElement("price")
		if id == "" || name == nil || price == nil {
			return nil, nil, fmt.Errorf("oracle: malformed catalog item %q", id)
		}
		p, err := strconv.Atoi(price.TextContent())
		if err != nil {
			return nil, nil, fmt.Errorf("oracle: item %s: %w", id, err)
		}
		m.items = append(m.items, item{id: id, name: name.TextContent(), price: p})
	}
	m.drawSets(seed)
	return m, catalog, nil
}

// answer is what a reply must amount to.
type answer struct {
	rows int
	sum  uint64 // sum of rowDigest over the rows (order-insensitive)
}

func (a *answer) add(d uint64) { a.rows++; a.sum += d }

func digest(label, id, name, price string) uint64 {
	h := fnv.New64a()
	for _, s := range [...]string{label, id, name, price} {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// rowDigest digests one reply row by the parts the workloads' queries can
// return: its label, its id attribute, and the text of its name and price
// (the row itself when it is a <name>, else its children of that label).
func rowDigest(row *xmltree.Node) uint64 {
	id, _ := row.Attr("id")
	text := func(label string) string {
		if row.Label == label {
			return row.TextContent()
		}
		if c := row.FirstChildElement(label); c != nil {
			return c.TextContent()
		}
		return ""
	}
	return digest(row.Label, id, text("name"), text("price"))
}

// What a query returns for each selected item.
type rowShape int

const (
	shapeItem    rowShape = iota // return $i            → <item id>…<name/><price/>…</item>
	shapeName                    // return $i/name       → <name>…</name>
	shapeWrapped                 // return <L>{$i/name}</L>
)

func (it item) digestAs(shape rowShape, label string) uint64 {
	switch shape {
	case shapeName:
		return digest("name", "", it.name, "")
	case shapeWrapped:
		return digest(label, "", it.name, "")
	default:
		return digest("item", it.id, it.name, strconv.Itoa(it.price))
	}
}

// lookup is the expected reply to a point lookup of items[k] by id.
func (m *model) lookup(k int) answer {
	var a answer
	a.add(m.items[k].digestAs(shapeName, ""))
	return a
}

// below is the expected reply to "where $i/price < t" over the initial
// catalog, each selected item returned in the given shape.
func (m *model) below(t int, shape rowShape, label string) answer {
	var a answer
	for _, it := range m.items {
		if it.price < t {
			a.add(it.digestAs(shape, label))
		}
	}
	return a
}

// Prices the mixed_rw writer flips pool items between: one inside every
// threshold mixed_rw reads with, view included, and one outside all.
const (
	priceIn  = 5
	priceOut = 995
)

// writePrice is the price the j-th write (0-based) sets.
func (m *model) writePrice(j int) int {
	if (j/len(m.pool))%2 == 0 {
		return priceIn
	}
	return priceOut
}

// belowAfter is the expected reply to "price < t return $i" once exactly
// the first w writes have been applied, for a threshold mixed_rw reads
// with: the cached answer over the non-pool items, plus the pool as it
// stands after w writes.
func (m *model) belowAfter(t, w int) answer {
	a := m.static[t]
	n := len(m.pool)
	for k, idx := range m.pool {
		it := m.items[idx]
		// The last write j < w with j ≡ k (mod n), if any.
		if w > k {
			it.price = m.writePrice(k + (w-1-k)/n*n)
		}
		if it.price < t {
			a.add(it.digestAs(shapeItem, ""))
		}
	}
	return a
}

// staticBelow is below(t) restricted to items outside the write pool.
func (m *model) staticBelow(t int) answer {
	inPool := make(map[int]bool, len(m.pool))
	for _, idx := range m.pool {
		inPool[idx] = true
	}
	var a answer
	for i, it := range m.items {
		if !inPool[i] && it.price < t {
			a.add(it.digestAs(shapeItem, ""))
		}
	}
	return a
}
