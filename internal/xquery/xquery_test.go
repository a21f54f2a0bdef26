package xquery

import (
	"fmt"
	"strings"
	"testing"

	"axml/internal/xmltree"
)

const catalogXML = `<catalog>
  <item id="1" cat="furniture"><name>chair</name><price>30</price></item>
  <item id="2" cat="furniture"><name>desk</name><price>120</price></item>
  <item id="3" cat="light"><name>lamp</name><price>15</price></item>
</catalog>`

const reviewsXML = `<reviews>
  <review><about>chair</about><stars>4</stars></review>
  <review><about>desk</about><stars>2</stars></review>
  <review><about>lamp</about><stars>5</stars></review>
</reviews>`

func testEnv(t *testing.T) *Env {
	t.Helper()
	docs := map[string]*xmltree.Node{
		"catalog": xmltree.MustParse(catalogXML),
		"reviews": xmltree.MustParse(reviewsXML),
	}
	return &Env{Resolve: func(name string) (*xmltree.Node, error) {
		d, ok := docs[name]
		if !ok {
			return nil, fmt.Errorf("no document %q", name)
		}
		return d, nil
	}}
}

// run evaluates src over testEnv. Every query that goes through it is
// also held to the reference evaluator, row for row.
func run(t *testing.T, src string, args ...[]*xmltree.Node) []*xmltree.Node {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	env := testEnv(t)
	checkAgainstReference(t, q, env, args...)
	out, err := q.Eval(env, args...)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return out
}

func TestSimplePath(t *testing.T) {
	out := run(t, `doc("catalog")/item/name`)
	if len(out) != 3 {
		t.Fatalf("got %d results", len(out))
	}
	if out[0].TextContent() != "chair" {
		t.Errorf("first = %q", out[0].TextContent())
	}
	// Results are copies: mutating them must not affect the document.
	out[0].Children[0].Text = "MUTATED"
	again := run(t, `doc("catalog")/item/name`)
	if again[0].TextContent() != "chair" {
		t.Error("query results share structure with the document")
	}
}

func TestFLWRBasic(t *testing.T) {
	out := run(t, `for $i in doc("catalog")/item where $i/price < 100 return $i/name`)
	if len(out) != 2 {
		t.Fatalf("got %d results, want 2", len(out))
	}
	names := []string{out[0].TextContent(), out[1].TextContent()}
	if names[0] != "chair" || names[1] != "lamp" {
		t.Errorf("names = %v", names)
	}
}

func TestConstructor(t *testing.T) {
	out := run(t, `for $i in doc("catalog")/item
		where $i/price < 100
		return <cheap id="{$i/@id}"><n>{$i/name/text()}</n></cheap>`)
	if len(out) != 2 {
		t.Fatalf("got %d results", len(out))
	}
	first := out[0]
	if first.Label != "cheap" {
		t.Errorf("label = %q", first.Label)
	}
	if v, _ := first.Attr("id"); v != "1" {
		t.Errorf("id = %q", v)
	}
	if got := first.FirstChildElement("n").TextContent(); got != "chair" {
		t.Errorf("n = %q", got)
	}
}

func TestConstructorLiteralAttrsAndText(t *testing.T) {
	out := run(t, `<root kind="static">hello <b>world</b></root>`)
	if len(out) != 1 {
		t.Fatalf("got %d results", len(out))
	}
	r := out[0]
	if v, _ := r.Attr("kind"); v != "static" {
		t.Errorf("kind = %q", v)
	}
	if got := r.TextContent(); got != "hello world" {
		t.Errorf("text = %q", got)
	}
	if r.FirstChildElement("b") == nil {
		t.Error("nested literal element missing")
	}
}

func TestConstructorEmptyElement(t *testing.T) {
	out := run(t, `<empty/>`)
	if len(out) != 1 || out[0].Label != "empty" || len(out[0].Children) != 0 {
		t.Errorf("empty constructor wrong: %v", out)
	}
}

func TestLetClause(t *testing.T) {
	out := run(t, `for $i in doc("catalog")/item
		let $p := $i/price
		where $p > 20
		return <x>{$p/text()}</x>`)
	if len(out) != 2 {
		t.Fatalf("got %d", len(out))
	}
	if out[0].TextContent() != "30" || out[1].TextContent() != "120" {
		t.Errorf("prices = %s, %s", out[0].TextContent(), out[1].TextContent())
	}
}

func TestJoinTwoDocs(t *testing.T) {
	out := run(t, `for $i in doc("catalog")/item, $r in doc("reviews")/review
		where $i/name = $r/about and $r/stars > 3
		return <rated><n>{$i/name/text()}</n><s>{$r/stars/text()}</s></rated>`)
	if len(out) != 2 {
		t.Fatalf("join results = %d, want 2", len(out))
	}
	if out[0].FirstChildElement("n").TextContent() != "chair" {
		t.Errorf("first joined = %s", xmltree.Serialize(out[0]))
	}
}

func TestOrderBy(t *testing.T) {
	out := run(t, `for $i in doc("catalog")/item
		order by $i/price
		return $i/name`)
	names := texts(out)
	if strings.Join(names, ",") != "lamp,chair,desk" {
		t.Errorf("ascending order = %v", names)
	}
	out = run(t, `for $i in doc("catalog")/item
		order by $i/price descending
		return $i/name`)
	names = texts(out)
	if strings.Join(names, ",") != "desk,chair,lamp" {
		t.Errorf("descending order = %v", names)
	}
	// String ordering.
	out = run(t, `for $i in doc("catalog")/item
		order by $i/name
		return $i/name`)
	names = texts(out)
	if strings.Join(names, ",") != "chair,desk,lamp" {
		t.Errorf("string order = %v", names)
	}
}

func texts(nodes []*xmltree.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.TextContent()
	}
	return out
}

func TestParameters(t *testing.T) {
	const src = `param $max;
		for $i in doc("catalog")/item
		where $i/price < $max
		return $i/name`
	q := MustParse(src)
	if q.Arity() != 1 {
		t.Fatalf("arity = %d", q.Arity())
	}
	out := run(t, src, []*xmltree.Node{xmltree.E("max", "100")})
	if len(out) != 2 {
		t.Errorf("got %d results", len(out))
	}
	// Wrong arity errors.
	if _, err := q.Eval(testEnv(t)); err == nil {
		t.Error("missing argument should error")
	}
}

func TestMultipleParameters(t *testing.T) {
	out := run(t, `param $lo, $hi;
		for $i in doc("catalog")/item
		where $i/price > $lo and $i/price < $hi
		return $i/name`,
		[]*xmltree.Node{xmltree.E("v", "20")},
		[]*xmltree.Node{xmltree.E("v", "100")})
	if len(out) != 1 || out[0].TextContent() != "chair" {
		t.Errorf("got %v", texts(out))
	}
}

func TestSeqInBraces(t *testing.T) {
	out := run(t, `<pair>{doc("catalog")/item[1]/name, doc("catalog")/item[2]/name}</pair>`)
	if len(out) != 1 {
		t.Fatalf("got %d", len(out))
	}
	if got := len(out[0].ChildElementsByLabel("name")); got != 2 {
		t.Errorf("pair has %d names", got)
	}
}

func TestNestedFLWRInConstructor(t *testing.T) {
	out := run(t, `<summary>{
		for $i in doc("catalog")/item where $i/price < 100 return <n>{$i/name/text()}</n>
	}</summary>`)
	if len(out) != 1 {
		t.Fatalf("got %d", len(out))
	}
	if got := len(out[0].ChildElementsByLabel("n")); got != 2 {
		t.Errorf("summary has %d n children: %s", got, xmltree.Serialize(out[0]))
	}
}

func TestScalarContentBecomesText(t *testing.T) {
	out := run(t, `<c>{count(doc("catalog")/item)}</c>`)
	if out[0].TextContent() != "3" {
		t.Errorf("count = %q", out[0].TextContent())
	}
}

func TestCommentsStripped(t *testing.T) {
	out := run(t, `(: header :) for $i in doc("catalog")/item (: nested (: inner :) :)
		where $i/price < 20 return $i/name`)
	if len(out) != 1 || out[0].TextContent() != "lamp" {
		t.Errorf("got %v", texts(out))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`for`,
		`for $x return 1`,
		`for $x in doc("d")/a`,
		`for x in doc("d")/a return $x`,
		`let $x = 1 return $x`,
		`<a>{</a>`,
		`<a></b>`,
		`<a attr=x/>`,
		`param $a`,
		`for $i in doc("d")/a order $i return $i`,
		`doc("a")/x trailing`,
		`(: unterminated`,
		`unmatched :)`,
		`<a>}</a>`,
		`doc($v)/x`,
		`doc()/x`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// evalErrorQueries parse but fail over testEnv; the second fails over
// an environment without resolver too.
var evalErrorQueries = []string{
	`doc("ghost")/a`, // unknown document
	`for $x in count(doc("catalog")/item) return $x`, // for over a scalar
	`$nope/x`, // unbound variable
}

func TestEvalErrors(t *testing.T) {
	env := testEnv(t)
	for _, src := range evalErrorQueries {
		if _, err := MustParse(src).Eval(env); err == nil {
			t.Errorf("Eval(%q) succeeded, want error", src)
		}
	}
	if _, err := MustParse(evalErrorQueries[0]).Eval(&Env{}); err == nil {
		t.Error("nil resolver should error")
	}
}

func TestKeywordLikePathsParse(t *testing.T) {
	// Element names that collide with keywords are usable after '/'.
	doc := xmltree.MustParse(`<r><return>x</return></r>`)
	env := &Env{Resolve: func(string) (*xmltree.Node, error) { return doc, nil }}
	q := MustParse(`doc("r")/return`)
	out, err := q.Eval(env)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(out) != 1 || out[0].TextContent() != "x" {
		t.Errorf("got %v", texts(out))
	}
}

func TestDocRefs(t *testing.T) {
	q := MustParse(`for $i in doc("catalog")/item, $r in doc("reviews")/review
		where $i/name = $r/about return <x>{doc("catalog")/item[1]}</x>`)
	refs := q.DocRefs()
	if len(refs) != 2 || refs[0] != "catalog" || refs[1] != "reviews" {
		t.Errorf("DocRefs = %v", refs)
	}
}

var roundTripSources = []string{
	`for $i in doc("catalog")/item where $i/price < 100 return $i/name`,
	`param $max; for $i in doc("catalog")/item where $i/price < $max return $i/name`,
	`for $i in doc("catalog")/item order by $i/price descending return <x id="{$i/@id}">{$i/name}</x>`,
	`<a k="v">txt<b/>{doc("catalog")/item[1]/name}</a>`,
	`for $i in doc("catalog")/item, $r in doc("reviews")/review where $i/name = $r/about return <p>{$i/name, $r/stars}</p>`,
	`let $all := doc("catalog")/item return count($all)`,
}

func TestRoundTripString(t *testing.T) {
	env := testEnv(t)
	for _, src := range roundTripSources {
		q1 := MustParse(src)
		rendered := q1.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Errorf("re-parse of %q failed: %v\n(from %q)", rendered, err, src)
			continue
		}
		var out1, out2 []*xmltree.Node
		var err1, err2 error
		if q1.Arity() == 1 {
			arg := []*xmltree.Node{xmltree.E("v", "100")}
			out1, err1 = q1.Eval(env, arg)
			out2, err2 = q2.Eval(env, arg)
		} else {
			out1, err1 = q1.Eval(env)
			out2, err2 = q2.Eval(env)
		}
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("eval divergence for %q: %v vs %v", src, err1, err2)
			continue
		}
		if len(out1) != len(out2) {
			t.Errorf("result count divergence for %q: %d vs %d", src, len(out1), len(out2))
			continue
		}
		for i := range out1 {
			if !xmltree.Equal(out1[i], out2[i]) {
				t.Errorf("result %d divergence for %q:\n%s\nvs\n%s",
					i, src, xmltree.Serialize(out1[i]), xmltree.Serialize(out2[i]))
			}
		}
	}
}

func TestBraceEscapes(t *testing.T) {
	out := run(t, `<a>{{literal}}</a>`)
	if got := out[0].TextContent(); got != "{literal}" {
		t.Errorf("text = %q", got)
	}
}

func TestEntityInConstructorText(t *testing.T) {
	out := run(t, `<a>x &lt; y &amp; z</a>`)
	if got := out[0].TextContent(); got != "x < y & z" {
		t.Errorf("text = %q", got)
	}
}
