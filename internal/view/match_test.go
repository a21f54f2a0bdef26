package view

import (
	"strings"
	"testing"

	"axml/internal/xquery"
)

func mustShape(t *testing.T, src string) *shape {
	t.Helper()
	sh, ok := viewShape(xquery.MustParse(src))
	if !ok {
		t.Fatalf("viewShape(%q) not matchable", src)
	}
	return sh
}

func TestViewShapeAccepts(t *testing.T) {
	sh := mustShape(t, `for $x in doc("c")/item where $x/price < 100 return $x`)
	if sh.doc != "c" || len(sh.steps) != 1 || len(sh.conjuncts) != 1 || sh.whole {
		t.Errorf("bad shape: %+v", sh)
	}
	sh = mustShape(t, `doc("c")`)
	if !sh.whole || sh.doc != "c" {
		t.Errorf("full-copy shape not recognized: %+v", sh)
	}
	sh = mustShape(t, `doc("c")/a/b`)
	if sh.whole || len(sh.steps) != 2 {
		t.Errorf("path shape wrong: %+v", sh)
	}
}

func TestViewShapeRejects(t *testing.T) {
	for _, src := range []string{
		`param $p; for $x in doc("c")/item return $x`,         // parameterized
		`for $x in doc("c")/item return $x/name`,              // projecting return
		`for $x in doc("c")/item, $y in doc("d")/x return $x`, // two fors
		`for $x in doc("c")/item order by $x/price return $x`, // ordered
		`for $x in doc("c")/item[1] return $x`,                // predicate in path
	} {
		if _, ok := viewShape(xquery.MustParse(src)); ok {
			t.Errorf("viewShape(%q) should be rejected", src)
		}
	}
}

// TestSubtreeLocal: which single-for bodies provenance maintenance may
// take — those that read nothing outside the bound source.
func TestSubtreeLocal(t *testing.T) {
	for _, c := range []struct {
		src  string
		want bool
	}{
		{`for $x in doc("c")/item where $x/price < 100 return $x`, true},
		{`for $x in doc("c")/item return <r>{$x/name}</r>`, true},
		{`for $x in doc("c")//item let $p := $x/price where $p < 5 return $p`, true},
		{`for $x in doc("c")/item where $x/descendant::tag = "a" return $x/@id`, true},
		{`for $x in doc("c")/item where count($x/../item) < 12 return $x`, false},       // parent axis
		{`for $x in doc("c")/item return $x/following-sibling::item`, false},            // sibling axis
		{`for $x in doc("c")/item where count(doc("c")/item) < 12 return $x`, false},    // doc() in where
		{`for $x in doc("c")/item let $all := doc("c")/item return count($all)`, false}, // doc() in let
		{`for $x in doc("c")/item return <r>{doc("c")/title}</r>`, false},               // doc() in return
		{`for $x in doc("c")/item[../@open] return $x`, false},                          // source predicate looks up
	} {
		if got := subtreeLocal(xquery.MustParse(c.src)); got != c.want {
			t.Errorf("subtreeLocal(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func rewriteOf(t *testing.T, viewSrc, querySrc string) (string, bool) {
	t.Helper()
	sh := mustShape(t, viewSrc)
	rw, ok := sh.rewrite("view:v", xquery.MustParse(querySrc))
	if !ok {
		return "", false
	}
	// The rewriting must round-trip through the parser (plans carry
	// query text across the wire).
	if _, err := xquery.Parse(rw.String()); err != nil {
		t.Fatalf("rewritten query does not re-parse: %q: %v", rw.String(), err)
	}
	return rw.String(), true
}

func TestRewriteIdenticalPredicateDropped(t *testing.T) {
	got, ok := rewriteOf(t,
		`for $x in doc("c")/item where $x/price < 100 return $x`,
		`for $i in doc("c")/item where $i/price < 100 return <hit>{$i/name}</hit>`)
	if !ok {
		t.Fatal("expected a rewrite")
	}
	if !strings.Contains(got, `doc("view:v")/item`) {
		t.Errorf("not re-rooted on the view: %q", got)
	}
	if strings.Contains(got, "where") {
		t.Errorf("redundant predicate should be dropped: %q", got)
	}
}

func TestRewriteTighterBoundKept(t *testing.T) {
	got, ok := rewriteOf(t,
		`for $x in doc("c")/item where $x/price < 300 return $x`,
		`for $i in doc("c")/item where $i/price < 100 return $i/name`)
	if !ok {
		t.Fatal("expected a rewrite (query bound is tighter)")
	}
	if !strings.Contains(got, "where") || !strings.Contains(got, "100") {
		t.Errorf("tighter query predicate must be kept: %q", got)
	}
}

func TestRewritePathPrefix(t *testing.T) {
	got, ok := rewriteOf(t,
		`for $x in doc("c")/region return $x`,
		`for $i in doc("c")/region/item where $i/price < 5 return $i`)
	if !ok {
		t.Fatal("expected a prefix rewrite")
	}
	if !strings.Contains(got, `doc("view:v")/region/item`) {
		t.Errorf("prefix rewrite wrong: %q", got)
	}
}

func TestRewriteFullCopyView(t *testing.T) {
	got, ok := rewriteOf(t,
		`doc("c")`,
		`for $i in doc("c")/item where $i/price < 5 return $i/name`)
	if !ok {
		t.Fatal("expected a full-copy rewrite")
	}
	if !strings.Contains(got, `doc("view:v")/item`) {
		t.Errorf("full-copy rewrite wrong: %q", got)
	}
}

func TestRewriteRejects(t *testing.T) {
	cases := []struct{ view, query, why string }{
		{`for $x in doc("c")/item where $x/price < 50 return $x`,
			`for $i in doc("c")/item where $i/price < 100 return $i`,
			"query predicate weaker than view's"},
		{`for $x in doc("c")/item where $x/price < 100 return $x`,
			`for $i in doc("c")/item return $i`,
			"query has no predicate at all"},
		{`for $x in doc("c")/item return $x`,
			`for $i in doc("d")/item return $i`,
			"different document"},
		{`for $x in doc("c")/region/item return $x`,
			`for $i in doc("c")/region return $i`,
			"query path shorter than view path"},
		{`for $x in doc("c")/item return $x`,
			`for $i in doc("c")/item return $i/..`,
			"upward navigation escapes the materialized subtree"},
		{`for $x in doc("c")/item where $x/stock > 0 return $x`,
			`for $i in doc("c")/item where $i/price < 10 return $i`,
			"unrelated predicates"},
	}
	for _, c := range cases {
		if got, ok := rewriteOf(t, c.view, c.query); ok {
			t.Errorf("rewrite should fail (%s), got %q", c.why, got)
		}
	}
}

func TestImpliesMatrix(t *testing.T) {
	mk := func(src string) *xquery.Path {
		q := xquery.MustParse(`for $v in doc("c")/i where ` + src + ` return $v`)
		return q.Body.(*xquery.FLWR).Where.(*xquery.Path)
	}
	cases := []struct {
		q, v string
		want bool
	}{
		{`$v/p < 10`, `$v/p < 10`, true},
		{`$v/p < 10`, `$v/p < 20`, true},
		{`$v/p < 20`, `$v/p < 10`, false},
		{`$v/p <= 10`, `$v/p < 20`, true},
		{`$v/p <= 10`, `$v/p <= 10`, true},
		{`$v/p = 5`, `$v/p < 10`, true},
		{`$v/p = 15`, `$v/p < 10`, false},
		{`$v/p > 10`, `$v/p > 5`, true},
		{`$v/p > 5`, `$v/p > 10`, false},
		{`$v/p >= 10`, `$v/p > 5`, true},
		{`$v/q < 10`, `$v/p < 20`, false},
	}
	for _, c := range cases {
		if got := implies(mk(c.q).X, mk(c.v).X); got != c.want {
			t.Errorf("implies(%s ⇒ %s) = %v, want %v", c.q, c.v, got, c.want)
		}
	}
}

func TestQueryKeyNormalization(t *testing.T) {
	key := func(src string) string {
		return QueryKey(xquery.MustParse(src))
	}
	// Formatting and whitespace collapse (String round-trip).
	a := key("for $i in doc(\"d\")/item\n  where $i/p < 10 and $i/q > 2\n  return $i/name")
	b := key(`for $i in doc("d")/item where $i/p < 10 and $i/q > 2 return $i/name`)
	if a != b {
		t.Errorf("formatting fragments the key:\n%s\n%s", a, b)
	}
	// Conjunct order collapses.
	c := key(`for $i in doc("d")/item where $i/q > 2 and $i/p < 10 return $i/name`)
	if a != c {
		t.Errorf("conjunct order fragments the key:\n%s\n%s", a, c)
	}
	// Different predicates stay distinct.
	d := key(`for $i in doc("d")/item where $i/p < 11 and $i/q > 2 return $i/name`)
	if a == d {
		t.Error("distinct predicates share a key")
	}
	// Non-FLWR queries key on their canonical source.
	if key(`doc("d")/item`) != key(` doc("d")/item `) {
		t.Error("path query keys differ on whitespace")
	}
	if key(`doc("d")/item`) == key(`doc("d")/other`) {
		t.Error("distinct paths share a key")
	}
}
