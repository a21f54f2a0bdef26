package xquery_test

import (
	"testing"

	"axml/internal/view"
	"axml/internal/xquery"
)

// TestRenderAllocations counts what rendering a benchmark query costs:
// the query's text grows in one buffer, its paths written by
// xpath.Append, so a render allocates the buffer, the string and little
// else, and the plan-cache key of a single-conjunct query is that
// render; a two-conjunct where renders each conjunct once to sort it.
// When each node still rendered a string of its own, and the sort
// rendered both conjuncts on every comparison, the counts were 18/19,
// 15/16, 21/22, 13/13 and 27/53 (String/QueryKey); the two-conjunct
// key was 16 while its where was split into one slice per operand.
func TestRenderAllocations(t *testing.T) {
	if xquery.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	shapes := append(xquery.BenchmarkShapes[:len(xquery.BenchmarkShapes):len(xquery.BenchmarkShapes)],
		`for $i in doc("catalog")/item where $i/price < 123 and $i/@id = "4" return <h7>{$i/name}</h7>`)
	want := []struct{ str, key float64 }{{2, 3}, {3, 4}, {3, 4}, {2, 2}, {3, 14}}
	for i, src := range shapes {
		q := xquery.MustParse(src)
		str := testing.AllocsPerRun(100, func() { _ = q.String() })
		key := testing.AllocsPerRun(100, func() { _ = view.QueryKey(q) })
		if str != want[i].str || key != want[i].key {
			t.Errorf("%s: String allocates %.0f times and QueryKey %.0f, want %.0f and %.0f",
				src, str, key, want[i].str, want[i].key)
		}
	}
}
