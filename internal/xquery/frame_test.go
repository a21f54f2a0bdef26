package xquery

import (
	"fmt"
	"testing"

	"axml/internal/xmltree"
)

// TestRejectedCandidatesResolveAlike pins how often a scan resolves its
// documents: a candidate the where clause rejects is rebound in place,
// yet each candidate still resolves what its where clause and the
// for-sources below it read, exactly as a scope of its own would.
// Over xquery_test.go's three items: doc("catalog") once, doc("picks")
// once per item.
func TestRejectedCandidatesResolveAlike(t *testing.T) {
	catalog := xmltree.MustParse(catalogXML)
	picks := xmltree.MustParse(`<picks><pick>desk</pick><pick>stool</pick></picks>`)
	for _, c := range []struct {
		query string
		rows  string
	}{
		{`for $i in doc("catalog")/item where $i/name = doc("picks")/pick return $i/name`,
			`<name>desk</name>`},
		{`for $i in doc("catalog")/item, $p in doc("picks")/pick where $i/name = $p return $i/name`,
			`<name>desk</name>`},
		{`for $i in doc("catalog")/item where $i/name != doc("picks")/pick[2] return $i/name`,
			"<name>chair</name>\n<name>desk</name>\n<name>lamp</name>"},
		{`for $i in doc("catalog")/item where $i/name = "nothing" or doc("picks")/pick = "none" return $i`,
			``},
	} {
		counts := map[string]int{}
		env := &Env{Resolve: func(name string) (*xmltree.Node, error) {
			counts[name]++
			switch name {
			case "catalog":
				return catalog, nil
			case "picks":
				return picks, nil
			}
			return nil, fmt.Errorf("no document %q", name)
		}}
		q := MustParse(c.query)
		got, err := q.Eval(env)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if s := serializeForest(got); s != c.rows {
			t.Errorf("%s:\n got  %s\n want %s", c.query, s, c.rows)
		}
		if counts["catalog"] != 1 || counts["picks"] != 3 {
			t.Errorf("%s: resolved catalog %d and picks %d times, want 1 and 3 (items + 1 calls)",
				c.query, counts["catalog"], counts["picks"])
		}
		checkAgainstReference(t, q, env)
	}
}

// TestAcceptedTuplesStayDistinct interleaves accepted and rejected
// candidates where a returned tuple could see a later candidate if its
// frame were rebound in place: tuples an order by holds until every
// candidate is seen, and inner for-frames under an outer one, some
// inner candidates accepted and some rejected.
func TestAcceptedTuplesStayDistinct(t *testing.T) {
	for _, c := range []struct {
		query string
		rows  string
	}{
		{`for $i in doc("catalog")/item where $i/price < 100 order by $i/name descending return $i/name`,
			"<name>lamp</name>\n<name>chair</name>"},
		{`for $i in doc("catalog")/item where $i/@cat = "furniture" order by $i/price descending return $i/name`,
			"<name>desk</name>\n<name>chair</name>"},
		{`for $i in doc("catalog")/item, $c in $i/* where $c != $i/name return <r>{$i/name}{$c}</r>`,
			"<r><name>chair</name><price>30</price></r>\n" +
				"<r><name>desk</name><price>120</price></r>\n" +
				"<r><name>lamp</name><price>15</price></r>"},
		{`for $i in doc("catalog")/item, $c in $i/* where $c != $i/name order by $c return <r>{$i/name}{$c}</r>`,
			"<r><name>lamp</name><price>15</price></r>\n" +
				"<r><name>chair</name><price>30</price></r>\n" +
				"<r><name>desk</name><price>120</price></r>"},
		{`for $i in doc("catalog")/item, $r in doc("reviews")/review where $r/about = $i/name and $r/stars > 3
		  order by $r/stars return <r s="{$r/stars}">{$i/name}</r>`,
			"<r s=\"4\"><name>chair</name></r>\n<r s=\"5\"><name>lamp</name></r>"},
		{`for $i in doc("catalog")/item let $n := $i/name where $i/price > 20 return $n`,
			"<name>chair</name>\n<name>desk</name>"},
	} {
		got := run(t, c.query)
		if s := serializeForest(got); s != c.rows {
			t.Errorf("%s:\n got  %s\n want %s", c.query, s, c.rows)
		}
	}
}
