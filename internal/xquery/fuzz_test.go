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

// statementSeeds are texts of each statement form other than a query,
// with the kind each parses to.
var statementSeeds = []struct {
	src  string
	kind string
}{
	{`delete doc("catalog")/item[price > 100]`, "delete"},
	{`delete node doc("catalog")/item[1]`, "delete"},
	{"DELETE\tdoc(\"catalog\")/item", "delete"},
	{"delete\n$i/a", "delete"},
	{`delete (doc("catalog")/item[1] | doc("catalog")/item[2])`, "delete"},
	{`delete(doc("d")/a)`, "delete"},
	{`replace doc("catalog")/item[1]/price with <price>5</price>`, "replace"},
	{`replace (doc("catalog")/item[1]/price) with <price>5</price>`, "replace"},
	{"replace node for $i in doc(\"d\")/item return $i/with\nWITH <x a=\"1\">t\r\n</x>", "replace"},
	{`declare view "cheap" as for $i in doc("catalog")/item where $i/price < 100 return $i`, "view"},
	{`Declare View 'v"1' AT "store" As doc("catalog")`, "view"},
	{`declare document "notes" as <notes><n>line one</n></notes>`, "document"},
}

// FuzzParse hardens the first untrusted input surface: every statement
// a wire client sends reaches ParseStatement verbatim. The parser must
// never panic, Parse must accept exactly the statements that are
// queries, and anything accepted must survive a print→parse round trip
// to the same statement (String() is how queries are shipped to other
// peers for delegation, so a rendering that parses to another query
// would change the answer, not just the printing).
func FuzzParse(f *testing.F) {
	for _, s := range fuzzParseSeeds {
		f.Add(s)
	}
	for _, s := range statementSeeds {
		f.Add(s.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var se *xpath.SyntaxError
		q, qerr := Parse(src)
		if qerr != nil && (!errors.As(qerr, &se) || se.Pos < 0 || se.Pos > len(src)) {
			t.Fatalf("Parse(%q): %v: want a syntax error at an offset within the input", src, qerr)
		}
		st, err := ParseStatement(src)
		if err != nil {
			if !errors.As(err, &se) || se.Pos < 0 || se.Pos > len(src) {
				t.Fatalf("ParseStatement(%q): %v: want a syntax error at an offset within the input", src, err)
			}
			if qerr == nil {
				t.Fatalf("Parse(%q) accepts a text ParseStatement refuses: %v", src, err)
			}
			return
		}
		if (qerr == nil) != (st.Kind == "query") || qerr == nil && !reflect.DeepEqual(q, st.Query) {
			t.Fatalf("Parse(%q) = %v, but it is a statement of kind %s", src, qerr, st.Kind)
		}
		if k := StatementKind(src); k != st.Kind {
			t.Fatalf("StatementKind(%q) = %s, want %s", src, k, st.Kind)
		}
		rendered := st.String()
		st2, err := ParseStatement(rendered)
		if err != nil {
			t.Fatalf("round trip failed: ParseStatement(%q) ok, but reparse of %q: %v", src, rendered, err)
		}
		if st2.Kind != st.Kind || st2.Name != st.Name || st2.At != st.At || !reflect.DeepEqual(st2.Query, st.Query) {
			t.Fatalf("ParseStatement(%q) renders %q, which parses to another statement", src, rendered)
		}
		// Idempotence: the rendering of the reparse must be stable, or
		// delegated fragments would drift hop by hop. It also holds the
		// XML tree of an update or a declaration.
		if r2 := st2.String(); r2 != rendered {
			t.Fatalf("rendering not stable:\n first: %s\nsecond: %s", rendered, r2)
		}
	})
}
