package main

import (
	"fmt"
	"math/rand"
	"sort"
)

// request is one read the generator sends, with what the oracle expects
// back.
type request struct {
	src      string
	snapshot bool // sent with WithSnapshotIsolation (+snapshot on the wire)

	want answer // the correct reply, when it does not depend on writes

	// live marks a mixed_rw read: the correct reply is the model's state
	// under threshold t after w writes, for a single w the check chooses
	// from the writer's counters.
	live bool
	t    int
}

// accepts reports whether got is a correct reply. For a live read, lo is
// the number of writes acknowledged when the read was sent and hi the
// number sent when its last row arrived: the reply must equal the model
// after exactly w writes for one w in [lo, hi] — single-epoch truth.
//
// A snapshot read is allowed to be older: the seed pins the served peer's
// epoch before it refreshes the view the plan reads, so a +snapshot read
// of a view shows the view as the previous read left it (see README,
// "Findings"). Such a reply must still be one single state, no older than
// floor — the writes acknowledged when the connection's previous read was
// sent — and is reported as stale, so the defect is a number in the
// ledger rather than a failed run.
func (r *request) accepts(m *model, got answer, floor, lo, hi int) (ok, stale bool) {
	if !r.live {
		return got == r.want, false
	}
	if !r.snapshot {
		floor = lo
	}
	for w := hi; w >= floor; w-- {
		if got == m.belowAfter(r.t, w) {
			return true, w < lo
		}
	}
	return false, false
}

// workload is one named traffic mix against one axmlpeer.
type workload struct {
	name string
	// items is the catalog size; remote hosts it at the simulated peer
	// "data" (-doc catalog=…@data) instead of the served peer "store", so
	// every query delegates across the simulated network.
	items  int
	remote bool
	// readers is the number of closed-loop reader connections.
	readers int
	// view defines viewQuery at the served peer before traffic; set-up
	// asserts that reads are answered from it.
	view bool
	// writeRate > 0 adds one open-loop writer connection at that many
	// writes per second over a pool of writePool items.
	writeRate int
	// warmup is the number of verified requests each reader completes
	// inside set-up, so lazy initialisation and the plan cache are paid
	// for before the measured window and show in setup_s.
	warmup int
	// replayWriteEvery makes the in-process replay of the trace run apply
	// one write before every n-th read (0: no writes).
	replayWriteEvery int
	// next builds reader conn's i-th request.
	next func(m *model, conn, i int) request
}

const (
	writePool = 64
	viewName  = "cheap"
)

// Selectivities are fixed as ranks, not prices: a threshold is the price
// below which a given number of items fall in this seed's catalog, so
// every seed asks for the same amount of work and differs only in which
// items answer.
const (
	bulkRows  = 1000 // of 2000: bulk_scan
	hotRows   = 53   // of 200: delegated_hot's eight shapes select 53, 55 … 67
	churnRows = 4    // of 200: plan_churn
	viewRows  = 200  // of 2000: the mixed_rw view; its reads select 60, 80 … 200
)

func selection(t int, ret string) string {
	return fmt.Sprintf(`for $i in doc("catalog")/item where $i/price < %d return %s`, t, ret)
}

func writeStatement(id string, price int) string {
	return fmt.Sprintf(`replace doc("catalog")/item[@id="%s"]/price with <price>%d</price>`, id, price)
}

// workloads lists the five workloads; the names are fixed because later
// changes cite them.
var workloads = []workload{
	{
		// One row out, whole document examined: evaluator-bound. The
		// peer's plan cache is keyed by the query text, constant included,
		// so the keys come from a working set that fits it: after warm-up
		// every lookup is a plan-cache hit.
		name: "point_lookup", items: 2000, readers: 2, warmup: hotKeys / 2,
		next: func(m *model, conn, i int) request {
			k := m.hot[(2*i+conn)%len(m.hot)]
			return request{
				src: fmt.Sprintf(`for $i in doc("catalog")/item where $i/@id = "%s" return $i/name`,
					m.items[k].id),
				want: m.lookup(k),
			}
		},
	},
	{
		// Half the document streamed back: framing, per-row flush,
		// serialisation on the peer and re-parsing on the client.
		name: "bulk_scan", items: 2000, readers: 1, warmup: 4,
		next: func(m *model, _, _ int) request {
			t := m.threshold(bulkRows)
			return request{src: selection(t, "$i"), want: m.below(t, shapeItem, "")}
		},
	},
	{
		// Eight fixed shapes over a remote document: plan-cache hits, then
		// eval@data and a forest shipped back over the simulated network.
		name: "delegated_hot", items: 200, remote: true, readers: 2, warmup: 8,
		next: func(m *model, conn, i int) request {
			t := m.threshold(hotRows + 2*((i+conn)%8))
			return request{src: selection(t, "$i"), want: m.below(t, shapeItem, "")}
		},
	},
	{
		// Every request is a shape the peer has never seen, so every
		// request runs the optimizer search and, from the 257th on, evicts
		// a cached plan.
		name: "plan_churn", items: 200, remote: true, readers: 2, warmup: 4,
		next: func(m *model, conn, i int) request {
			t := m.threshold(churnRows)
			label := fmt.Sprintf("h%d", 2*i+conn)
			return request{
				src:  selection(t, fmt.Sprintf("<%s>{$i/name}</%s>", label, label)),
				want: m.below(t, shapeWrapped, label),
			}
		},
	},
	{
		// Reads answered from a view while a writer moves items across
		// the view's boundary: commit, change notification, delta refresh
		// on the read path, snapshot pins.
		name: "mixed_rw", items: 2000, remote: true, readers: 1, warmup: 16,
		view: true, writeRate: 50, replayWriteEvery: 2,
		next: func(m *model, _, i int) request {
			// Alternate a selection the view subsumes with a snapshot
			// stream of the whole view.
			rows := viewRows
			if i%2 == 0 {
				rows = 60 + 20*((i/2)%8)
			}
			t := m.threshold(rows)
			return request{src: selection(t, "$i"), snapshot: i%2 == 1,
				live: true, t: t}
		},
	},
}

// viewQuery is the view mixed_rw defines: the viewRows cheapest items.
func viewQuery(m *model) string { return selection(m.threshold(viewRows), "$i") }

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// reader is the deterministic request stream of one connection.
type reader struct {
	wl   *workload
	m    *model
	conn int
	i    int
}

func (r *reader) next() request {
	req := r.wl.next(r.m, r.conn, r.i)
	r.i++
	return req
}

// hotKeys is the size of point_lookup's working set of keys.
const hotKeys = 32

// drawSets draws from the seed what the request streams vary over: the
// point_lookup working set and the mixed_rw write pool, distinct items
// each.
func (m *model) drawSets(seed int64) {
	r := rand.New(rand.NewSource(seed*104729 + 17))
	// One hot key from each of hotKeys equal stretches of the document:
	// how soon a lookup's row appears depends on where its item sits, and
	// this keeps the positions spread the same way under every seed.
	stretch := len(m.items) / hotKeys
	inHot := map[int]bool{}
	for j := 0; j < hotKeys; j++ {
		k := j*stretch + r.Intn(stretch)
		m.hot = append(m.hot, k)
		inHot[k] = true
	}
	for _, k := range r.Perm(len(m.items)) {
		if len(m.pool) < writePool && !inHot[k] {
			m.pool = append(m.pool, k)
		}
	}
	m.prices = make([]int, len(m.items))
	for i, it := range m.items {
		m.prices[i] = it.price
	}
	sort.Ints(m.prices)
	// The thresholds mixed_rw reads with; computed once, read by every
	// reader.
	m.static = map[int]answer{}
	for rows := 60; rows <= viewRows && rows < len(m.prices); rows += 20 {
		t := m.threshold(rows)
		m.static[t] = m.staticBelow(t)
	}
}

// threshold returns the price below which rows items of the catalog fall
// (fewer by the ties at that price).
func (m *model) threshold(rows int) int { return m.prices[rows] }
