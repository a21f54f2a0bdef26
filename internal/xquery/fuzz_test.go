package xquery

import (
	"strings"
	"testing"
)

// fuzzParseSeeds start FuzzParse's corpus; the differential test of the
// evaluator (TestCursorEagerEquivalence) evaluates those that parse.
var fuzzParseSeeds = []string{
	`doc("catalog")/item/name`,
	`for $i in doc("catalog")/item where $i/price < 100 return $i/name`,
	`param $max; for $i in doc("d")/x where $i/p < $max return $i`,
	`let $all := doc("d")/item return <wrap>{$all}</wrap>`,
	`for $i in doc("d")/item order by $i/price return $i`,
	`<a b="c">text</a>`,
	`for $i in doc("a")/x for $j in doc("b")/y where $i/k = $j/k return <pair>{$i}{$j}</pair>`,
	"",
	"for",
	`doc(`,
	`doc("unterminated`,
	strings.Repeat("(", 1000),
	"for $i in doc(\"d\")/x return <a>{$i}</a>\x00",
	`sc("svc@p", 1)`,
}

// FuzzParse hardens the first untrusted input surface: every query a
// wire client sends reaches Parse verbatim. The parser must never
// panic, and anything it accepts must survive a print→parse round trip
// (String() is how queries are shipped to other peers for delegation,
// so an unparsable rendering would break distribution, not printing).
func FuzzParse(f *testing.F) {
	for _, s := range fuzzParseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("round trip failed: Parse(%q) ok, but reparse of %q: %v", src, rendered, err)
		}
		// Idempotence: the rendering of the reparse must be stable, or
		// delegated fragments would drift hop by hop.
		if r2 := q2.String(); r2 != rendered {
			t.Fatalf("rendering not stable:\n first: %s\nsecond: %s", rendered, r2)
		}
	})
}
