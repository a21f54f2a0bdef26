package xmltree_test

import (
	"runtime"
	"strings"
	"testing"

	"axml/internal/xmltree"
)

// TestCodecCostCounters pins what the codec costs on the ledger's
// shapes: allocations and bytes per Parse, as ceilings. The parser
// reads 11 allocations and 190,464 B for the catalog, 3 and 1,024 for
// the row, 4 and 57,856 for the forest; the byte ceilings sit about 5 %
// above that. The parser before the block allocator read 3,010
// allocations and 196,584 B for the catalog, 17 and 1,080 for the row,
// 908 and 58,728 for the forest.
func TestCodecCostCounters(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	catalog := substrateCatalog()
	var forest strings.Builder
	forest.WriteString("<x:forest>")
	for _, item := range catalog.Children[:60] {
		forest.WriteString(xmltree.Serialize(item))
	}
	forest.WriteString("</x:forest>")
	row := "<x:row>" + xmltree.Serialize(benchCatalog().Children[0]) + "</x:row>"

	for _, c := range []struct {
		name          string
		in            string
		allocs, bytes float64
	}{
		{"200-item catalog", xmltree.Serialize(catalog), 12, 200_000},
		{"bulk_scan row", row, 3, 1_080},
		{"60-item forest", forest.String(), 5, 61_000},
	} {
		parse := func() {
			if _, err := xmltree.Parse(c.in); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(20, parse); got > c.allocs {
			t.Errorf("%s: Parse allocates %v times, ceiling %v", c.name, got, c.allocs)
		}
		if got := bytesPerRun(100, parse); got > c.bytes {
			t.Errorf("%s: Parse allocates %v B, ceiling %v", c.name, got, c.bytes)
		}
	}

	// A row encoded into a buffer that has room for it allocates nothing.
	item := benchCatalog().Children[0]
	buf := make([]byte, 0, 4096)
	if got := testing.AllocsPerRun(100, func() { buf, _ = xmltree.AppendLine(buf[:0], item) }); got != 0 {
		t.Errorf("AppendLine of a row allocates %v times, want 0", got)
	}
}

// bytesPerRun is the heap bytes one call of f allocates, averaged over
// runs calls.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
