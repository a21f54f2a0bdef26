package xquery

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"axml/internal/xpath"
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
	`for $i in doc("catalog")/item where $i/@id = "3" return $i/name`,
	`for $i in doc("catalog")/item where "n-4" = $i/name and $i/price < 100 return <r>{$i/@id}</r>`,
	// Comment markers inside a literal, an attribute value and element
	// content are text, not comments.
	`"(:x:)"`,
	`<r>a (:b:) c</r>`,
	`<r a="(:x:)"/>`,
	`"ok :)"`,
	`"x (: y"`,
	`doc("r")/return`,
	`<a>{{x}} {1} }}</a>`,
	// A path that starts from a union or a negation keeps the
	// parentheses around its start when it is rendered.
	`($x/a | $x/b)/c`,
	`count((doc("d")/a | doc("d")/b)/c)`,
	`(-$x)/c`,
	// A filter's predicates: XPath 1.0's FilterExpr.
	`for $x in doc("d") return ($x/a | $x/b)[1]`,
	`(doc("d")/a | doc("d")/b)[last()]/c`,
}

// FuzzParse hardens the first untrusted input surface: every query a
// wire client sends reaches Parse verbatim. The parser must never
// panic, and anything it accepts must survive a print→parse round trip
// to the same tree (String() is how queries are shipped to other peers
// for delegation, so a rendering that parses to another query would
// change the answer, not just the printing).
func FuzzParse(f *testing.F) {
	for _, s := range fuzzParseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			var se *xpath.SyntaxError
			if !errors.As(err, &se) || se.Pos < 0 || se.Pos > len(src) {
				t.Fatalf("Parse(%q): %v: want a syntax error at an offset within the input", src, err)
			}
			return
		}
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("round trip failed: Parse(%q) ok, but reparse of %q: %v", src, rendered, err)
		}
		if !reflect.DeepEqual(q2, q) {
			t.Fatalf("Parse(%q) renders %q, which parses to another query", src, rendered)
		}
		// Idempotence: the rendering of the reparse must be stable, or
		// delegated fragments would drift hop by hop.
		if r2 := q2.String(); r2 != rendered {
			t.Fatalf("rendering not stable:\n first: %s\nsecond: %s", rendered, r2)
		}
	})
}
