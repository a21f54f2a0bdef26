package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"axml/internal/workload"
	"axml/internal/xmltree"
)

// bulkScan is the ledger's bulk_scan request over a fresh 2,000-item
// catalog at a served peer: the selection that returns 1,000 items
// whole.
func bulkScan(t *testing.T) (*Server, *xmltree.Node, string) {
	t.Helper()
	catalog := workload.Catalog(workload.CatalogSpec{Items: 2000, PriceMax: 1000, DescWords: 10, Seed: 1})
	var prices []int
	for _, item := range catalog.Children {
		p, _ := strconv.Atoi(item.FirstChildElement("price").TextContent())
		prices = append(prices, p)
	}
	slices.Sort(prices)
	src := fmt.Sprintf(`QUERYX for $i in doc("catalog")/item where $i/price < %d return $i`, prices[1000])
	p, views := newStore(t, map[string]*xmltree.Node{"catalog": catalog})
	return &Server{Peer: p, Views: views}, catalog, src
}

// TestBulkScanAllocations counts the serving peer's side of a bulk_scan
// request: a plan-cache hit streaming its rows through Server.dispatch
// into a connection buffer. The count is a ceiling. It read 5,121 while
// every row was encoded from its tree, and 5,095 since the stored items
// keep their encodings: a kept row is copied into the buffer, which
// allocates nothing, and the evaluator's allocations stay.
func TestBulkScanAllocations(t *testing.T) {
	srv, _, src := bulkScan(t)
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	srv.dispatch(src, w)
	_ = w.Flush()
	if rows := bytes.Count(out.Bytes(), []byte("<x:row>")); rows != 1000 || !bytes.HasSuffix(out.Bytes(), []byte("<x:end n=\"1000\"/>\n")) {
		t.Fatalf("the scan wrote %d rows, want 1000: %.200s", rows, out.Bytes())
	}
	if raceEnabled {
		return // the race detector allocates on its own account
	}
	w.Reset(io.Discard)
	allocs := testing.AllocsPerRun(10, func() {
		srv.dispatch(src, w)
		_ = w.Flush()
	})
	if allocs > 5095 {
		t.Errorf("a bulk scan allocates %v times per op, want at most 5095", allocs)
	}
}

// TestBulkScanRetainedHeap: what a bulk_scan run leaves behind on the
// serving peer, the encodings its items keep, is at most the catalog's
// serialized bytes.
func TestBulkScanRetainedHeap(t *testing.T) {
	srv, catalog, src := bulkScan(t)
	size := catalog.ByteSize()
	w := bufio.NewWriter(io.Discard)
	live := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := live()
	for i := 0; i < 20; i++ {
		srv.dispatch(src, w)
	}
	_ = w.Flush()
	grown := live() - before
	t.Logf("20 scans retained %d B; the catalog is %d B", grown, size)
	if grown > int64(size) {
		t.Errorf("20 scans retained %d B, more than the catalog's %d B", grown, size)
	}
}
