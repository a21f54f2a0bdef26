package xquery

import (
	"strings"
	"testing"
)

// benchmarkShapes are the query texts of the benchmark's workloads:
// point_lookup; bulk_scan, delegated_hot and mixed_rw; plan_churn; and
// the path half of mixed_rw's replace statement.
var benchmarkShapes = []string{
	`for $i in doc("catalog")/item where $i/@id = "17" return $i/name`,
	`for $i in doc("catalog")/item where $i/price < 500 return $i`,
	`for $i in doc("catalog")/item where $i/price < 123 return <h7>{$i/name}</h7>`,
	`doc("catalog")/item[@id="17"]/price`,
}

// parseParity is what Parse made of each text when a comment pre-pass
// and a span scanner fed xpath.Compile: the String() of the query, or
// "error". The one-lexer parser must agree on every row, except where
// a comment marker sat inside a literal or element content: the
// pre-pass stripped or refused those, the rows hold the right value
// and the old one in a comment.
var parseParity = []struct{ src, want string }{
	{`doc("catalog")/item/name`, `doc("catalog")/item/name`},
	{`for $i in doc("catalog")/item where $i/price < 100 return $i/name`, `for $i in doc("catalog")/item where ($i/price < 100) return $i/name`},
	{`param $max; for $i in doc("d")/x where $i/p < $max return $i`, `param $max; for $i in doc("d")/x where ($i/p < $max) return $i`},
	{`let $all := doc("d")/item return <wrap>{$all}</wrap>`, `let $all := doc("d")/item return <wrap>{$all}</wrap>`},
	{`for $i in doc("d")/item order by $i/price return $i`, `for $i in doc("d")/item order by $i/price return $i`},
	{`<a b="c">text</a>`, `<a b="c">text</a>`},
	{`for $i in doc("a")/x for $j in doc("b")/y where $i/k = $j/k return <pair>{$i}{$j}</pair>`, `for $i in doc("a")/x for $j in doc("b")/y where ($i/k = $j/k) return <pair>{$i}{$j}</pair>`},
	{``, `error`},
	{`for`, `error`},
	{`doc(`, `error`},
	{`doc("unterminated`, `error`},
	{strings.Repeat("(", 1000), `error`},
	{"for $i in doc(\"d\")/x return <a>{$i}</a>\x00", `error`},
	{`sc("svc@p", 1)`, `sc("svc@p", 1)`},
	{`for $i in doc("catalog")/item where $i/@id = "3" return $i/name`, `for $i in doc("catalog")/item where ($i/@id = "3") return $i/name`},
	{`for $i in doc("catalog")/item where "n-4" = $i/name and $i/price < 100 return <r>{$i/@id}</r>`, `for $i in doc("catalog")/item where (("n-4" = $i/name) and ($i/price < 100)) return <r>{$i/@id}</r>`},
	{`"(:x:)"`, `"(:x:)"`},                   // was `""`
	{`<r>a (:b:) c</r>`, `<r>a (:b:) c</r>`}, // was `<r>a  c</r>`
	{`<r a="(:x:)"/>`, `<r a="(:x:)"/>`},     // was `<r a=""/>`
	{`"ok :)"`, `"ok :)"`},                   // was error
	{`"x (: y"`, `"x (: y"`},                 // was error
	{`doc("r")/return`, `doc("r")/return`},
	{`<a>{{x}} {1} }}</a>`, `<a>{{x}} {1} }}</a>`},
	{`10000000000000000`, `10000000000000000`},
	{"doc(\"\xb3\")", "doc(\"\xb3\")"},
	{`doc("catalog")/item[price > 10000000000000000]`, `doc("catalog")/item[(price > 10000000000000000)]`},
	{`param $max; for $i in doc("catalog")/item where $i/price < $max return $i/name`, `param $max; for $i in doc("catalog")/item where ($i/price < $max) return $i/name`},
	{`for $i in doc("catalog")/item order by $i/price descending return <x id="{$i/@id}">{$i/name}</x>`, `for $i in doc("catalog")/item order by $i/price descending return <x id="{$i/@id}">{$i/name}</x>`},
	{`<a k="v">txt<b/>{doc("catalog")/item[1]/name}</a>`, `<a k="v">txt{<b/>}{doc("catalog")/item[1]/name}</a>`},
	{`for $i in doc("catalog")/item, $r in doc("reviews")/review where $i/name = $r/about return <p>{$i/name, $r/stars}</p>`, `for $i in doc("catalog")/item for $r in doc("reviews")/review where ($i/name = $r/about) return <p>{$i/name}{$r/stars}</p>`},
	{`let $all := doc("catalog")/item return count($all)`, `let $all := doc("catalog")/item return count($all)`},
	{`for $x return 1`, `error`},
	{`for $x in doc("d")/a`, `error`},
	{`for x in doc("d")/a return $x`, `error`},
	{`let $x = 1 return $x`, `error`},
	{`<a>{</a>`, `error`},
	{`<a></b>`, `error`},
	{`<a attr=x/>`, `error`},
	{`param $a`, `error`},
	{`for $i in doc("d")/a order $i return $i`, `error`},
	{`doc("a")/x trailing`, `error`},
	{`(: unterminated`, `error`},
	{`unmatched :)`, `error`},
	{`<a>}</a>`, `error`},
	{`doc($v)/x`, `error`},
	{`doc()/x`, `error`},
	{`for $i in doc("catalog")/item where $i/@id = "17" return $i/name`, `for $i in doc("catalog")/item where ($i/@id = "17") return $i/name`},
	{`for $i in doc("catalog")/item where $i/price < 500 return $i`, `for $i in doc("catalog")/item where ($i/price < 500) return $i`},
	{`for $i in doc("catalog")/item where $i/price < 123 return <h7>{$i/name}</h7>`, `for $i in doc("catalog")/item where ($i/price < 123) return <h7>{$i/name}</h7>`},
	{`doc("catalog")/item[@id="17"]/price`, `doc("catalog")/item[(@id = "17")]/price`},
	// The old renderings dropped the parentheses around a path's start,
	// and parsed to another query.
	{`($x/a | $x/b)/c`, `($x/a | $x/b)/c`},                                       // was `$x/a | $x/b/c`
	{`count((doc("d")/a | doc("d")/b)/c)`, `count((doc("d")/a | doc("d")/b)/c)`}, // was `count(doc("d")/a | doc("d")/b/c)`
	{`(-$x)/c`, `(-$x)/c`},                                                       // was `-$x/c`
	// A filter's predicates (XPath 1.0's FilterExpr) were refused.
	{`for $x in doc("d") return ($x/a | $x/b)[1]`, `for $x in doc("d") return ($x/a | $x/b)[1]`}, // was error
	{`(doc("d")/a | doc("d")/b)[last()]/c`, `(doc("d")/a | doc("d")/b)[last()]/c`},               // was error
}

func TestParseParity(t *testing.T) {
	want := make(map[string]string, len(parseParity))
	for _, row := range parseParity {
		want[row.src] = row.want
		got := "error"
		if q, err := Parse(row.src); err == nil {
			got = q.String()
		}
		if got != row.want {
			t.Errorf("Parse(%q) = %s, want %s", row.src, got, row.want)
		}
	}
	sources := [][]string{fuzzCorpus(t), roundTripSources, parseErrorSources, benchmarkShapes}
	for _, list := range sources {
		for _, src := range list {
			if _, ok := want[src]; !ok {
				t.Errorf("%q has no row in parseParity", src)
			}
		}
	}
}

// parseShapes are the point_lookup and plan_churn query texts.
var parseShapes = []struct {
	name, src string
	allocs    float64
}{
	{"point_lookup", benchmarkShapes[0], 26},
	{"plan_churn", benchmarkShapes[2], 28},
}

// TestParseAllocations counts what parsing a query text costs: its
// tokens are read once, so the tree's nodes and little else.
func TestParseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, c := range parseShapes {
		if got := testing.AllocsPerRun(100, func() { MustParse(c.src) }); got != c.allocs {
			t.Errorf("%s: Parse allocates %.0f times, want %.0f", c.name, got, c.allocs)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	for _, c := range parseShapes {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				MustParse(c.src)
			}
		})
	}
}

// TestParseRefusesStatements: Parse refuses every statement form other
// than a query, so no view, service body or shipped plan is an update
// or a declaration; ParseStatement reads each as its kind, and so does
// StatementKind from the leading tokens. A query whose first word is a
// statement keyword stays a query, unless a bracket follows it: no
// function delete or replace exists.
func TestParseRefusesStatements(t *testing.T) {
	for _, c := range statementSeeds {
		if q, err := Parse(c.src); err == nil {
			t.Errorf("Parse(%q) = %s, want an error", c.src, q)
		}
		st, err := ParseStatement(c.src)
		if err != nil || st.Kind != c.kind || StatementKind(c.src) != c.kind {
			t.Errorf("ParseStatement(%q) = %s, %v; want kind %s", c.src, st.Kind, err, c.kind)
		}
	}
	for _, src := range []string{`delete`, `delete/x`, `replace[1]`, `delete and doc("d")/a`, `declare`, `declare(1)`} {
		if _, err := Parse(src); err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if st, err := ParseStatement(src); err != nil || st.Kind != "query" {
			t.Errorf("ParseStatement(%q) = %s, %v; want a query", src, st.Kind, err)
		}
	}
}
