package xquery

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"axml/internal/workload"
	"axml/internal/xmltree"
)

func TestDecomposeBasic(t *testing.T) {
	q := MustParse(`for $i in doc("catalog")/item
		where $i/price < 100 and $i/@cat = "furniture"
		return <hit>{$i/name}</hit>`)
	dec, ok := Decompose(q)
	if !ok {
		t.Fatal("Decompose failed on pushable query")
	}
	if dec.Doc != "catalog" {
		t.Errorf("Doc = %q", dec.Doc)
	}
	if dec.Pushed != 2 || dec.Kept != 0 {
		t.Errorf("Pushed/Kept = %d/%d, want 2/0", dec.Pushed, dec.Kept)
	}
	if dec.Remote.Arity() != 0 {
		t.Errorf("remote arity = %d", dec.Remote.Arity())
	}
	if dec.Local.Arity() != 1 || dec.Local.Params[0] != "in" {
		t.Errorf("local params = %v", dec.Local.Params)
	}

	// Semantics: remote at data peer, local over shipped results must
	// equal direct evaluation.
	env := testEnv(t)
	direct, err := q.Eval(env)
	if err != nil {
		t.Fatalf("direct eval: %v", err)
	}
	shipped, err := dec.Remote.Eval(env)
	if err != nil {
		t.Fatalf("remote eval: %v", err)
	}
	if len(shipped) != 1 {
		t.Errorf("remote shipped %d nodes, want 1 (only cheap furniture)", len(shipped))
	}
	final, err := dec.Local.Eval(env, shipped)
	if err != nil {
		t.Fatalf("local eval: %v", err)
	}
	if len(final) != len(direct) {
		t.Fatalf("decomposed result count %d != direct %d", len(final), len(direct))
	}
	for i := range final {
		if !xmltree.Equal(final[i], direct[i]) {
			t.Errorf("result %d differs:\n%s\nvs\n%s", i,
				xmltree.Serialize(final[i]), xmltree.Serialize(direct[i]))
		}
	}
}

func TestDecomposePartialPush(t *testing.T) {
	// One conjunct references a parameter: it must stay local.
	q := MustParse(`param $minstars;
		for $i in doc("catalog")/item
		where $i/price < 100 and $i/@id = $minstars
		return $i/name`)
	dec, ok := Decompose(q)
	if !ok {
		t.Fatal("Decompose failed")
	}
	if dec.Pushed != 1 || dec.Kept != 1 {
		t.Errorf("Pushed/Kept = %d/%d, want 1/1", dec.Pushed, dec.Kept)
	}
	if len(dec.Local.Params) != 2 || dec.Local.Params[0] != "in" || dec.Local.Params[1] != "minstars" {
		t.Errorf("local params = %v", dec.Local.Params)
	}
	env := testEnv(t)
	direct, err := q.Eval(env, []*xmltree.Node{xmltree.E("v", "1")})
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	shipped, err := dec.Remote.Eval(env)
	if err != nil {
		t.Fatalf("remote: %v", err)
	}
	final, err := dec.Local.Eval(env, shipped, []*xmltree.Node{xmltree.E("v", "1")})
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	if len(final) != len(direct) || len(final) != 1 {
		t.Errorf("counts: final=%d direct=%d", len(final), len(direct))
	}
}

func TestDecomposeJoinKeepsJoinPredicate(t *testing.T) {
	q := MustParse(`for $i in doc("catalog")/item, $r in doc("reviews")/review
		where $i/price < 100 and $i/name = $r/about
		return <m>{$i/name}</m>`)
	dec, ok := Decompose(q)
	if !ok {
		t.Fatal("Decompose failed")
	}
	if dec.Pushed != 1 || dec.Kept != 1 {
		t.Errorf("Pushed/Kept = %d/%d", dec.Pushed, dec.Kept)
	}
	env := testEnv(t)
	direct, _ := q.Eval(env)
	shipped, err := dec.Remote.Eval(env)
	if err != nil {
		t.Fatalf("remote: %v", err)
	}
	final, err := dec.Local.Eval(env, shipped)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	if len(final) != len(direct) {
		t.Errorf("join decomposition: %d vs %d", len(final), len(direct))
	}
}

func TestDecomposeRejects(t *testing.T) {
	cases := []string{
		// Not a FLWR.
		`doc("catalog")/item/name`,
		// No where clause.
		`for $i in doc("catalog")/item return $i`,
		// Where references only other vars (nothing pushable).
		`param $p; for $i in doc("catalog")/item where $p = 1 return $i`,
		// Source is not a doc path.
		`param $in; for $i in $in/item where $i/price < 1 return $i`,
	}
	for _, src := range cases {
		q := MustParse(src)
		if _, ok := Decompose(q); ok {
			t.Errorf("Decompose(%q) succeeded, want rejection", src)
		}
	}
}

func TestDecomposeRendersAndReparses(t *testing.T) {
	q := MustParse(`for $i in doc("catalog")/item
		where $i/price < 100 and contains($i/name, "a")
		return <hit>{$i/name}</hit>`)
	dec, ok := Decompose(q)
	if !ok {
		t.Fatal("Decompose failed")
	}
	// Both parts must render to parseable source (they are shipped as
	// text between peers).
	for _, part := range []*Query{dec.Remote, dec.Local} {
		src := part.String()
		if _, err := Parse(src); err != nil {
			t.Errorf("rendered part %q does not re-parse: %v", src, err)
		}
	}
}

// Property: for random catalogs and random threshold predicates, the
// decomposed plan computes exactly the direct result.
func TestQuickDecomposeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(30) + 1
		cat := xmltree.NewElement("catalog")
		for i := 0; i < n; i++ {
			item := xmltree.E("item",
				xmltree.A("id", fmt.Sprint(i)),
				xmltree.E("name", xmltree.T(fmt.Sprintf("p%d", r.Intn(10)))),
				xmltree.E("price", xmltree.T(fmt.Sprint(r.Intn(200)))),
			)
			cat.AppendChild(item)
		}
		env := &Env{Resolve: func(string) (*xmltree.Node, error) { return cat, nil }}
		threshold := r.Intn(200)
		q := MustParse(fmt.Sprintf(
			`for $i in doc("c")/item where $i/price < %d return <r>{$i/name/text()}</r>`, threshold))
		dec, ok := Decompose(q)
		if !ok {
			t.Log("Decompose rejected")
			return false
		}
		direct, err := q.Eval(env)
		if err != nil {
			t.Logf("direct: %v", err)
			return false
		}
		shipped, err := dec.Remote.Eval(env)
		if err != nil {
			t.Logf("remote: %v", err)
			return false
		}
		final, err := dec.Local.Eval(env, shipped)
		if err != nil {
			t.Logf("local: %v", err)
			return false
		}
		if len(final) != len(direct) {
			t.Logf("count %d vs %d", len(final), len(direct))
			return false
		}
		for i := range final {
			if !xmltree.Equal(final[i], direct[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRecomputeDelta(t *testing.T) {
	cat := xmltree.MustParse(`<catalog><item><price>10</price></item></catalog>`)
	env := &Env{Resolve: func(string) (*xmltree.Node, error) { return cat, nil }}
	q := MustParse(`for $i in doc("c")/item where $i/price < 100 return <hit>{$i/price/text()}</hit>`)
	rc := NewRecompute(q, env)

	d1, err := rc.Delta()
	if err != nil {
		t.Fatalf("delta1: %v", err)
	}
	if len(d1) != 1 {
		t.Fatalf("delta1 = %d results", len(d1))
	}
	// No change: no delta.
	d2, _ := rc.Delta()
	if len(d2) != 0 {
		t.Errorf("delta2 = %d, want 0", len(d2))
	}
	// Append an item: one new result.
	cat.AppendChild(xmltree.E("item", xmltree.E("price", "20")))
	d3, _ := rc.Delta()
	if len(d3) != 1 || d3[0].TextContent() != "20" {
		t.Errorf("delta3 = %v", texts(d3))
	}
	// Duplicate content counts via multiset: same price again.
	cat.AppendChild(xmltree.E("item", xmltree.E("price", "20")))
	d4, _ := rc.Delta()
	if len(d4) != 1 {
		t.Errorf("delta4 = %d, want 1 (multiset growth)", len(d4))
	}
}

func TestDeltaForIncremental(t *testing.T) {
	cat := xmltree.MustParse(`<catalog><item><price>10</price></item></catalog>`)
	env := &Env{Resolve: func(string) (*xmltree.Node, error) { return cat, nil }}
	q := MustParse(`for $i in doc("c")/item where $i/price < 15 return <hit>{$i/price/text()}</hit>`)
	inc, ok := NewDeltaFor(q, env)
	if !ok {
		t.Fatal("NewDeltaFor rejected single-for query")
	}
	d1 := mustEvents(t, inc).AddedTrees()
	if len(d1) != 1 {
		t.Fatalf("delta1 = %d", len(d1))
	}
	d2 := mustEvents(t, inc).AddedTrees()
	if len(d2) != 0 {
		t.Errorf("delta2 = %d, want 0", len(d2))
	}
	cat.AppendChild(xmltree.E("item", xmltree.E("price", "12")))
	cat.AppendChild(xmltree.E("item", xmltree.E("price", "99")))
	d3 := mustEvents(t, inc).AddedTrees()
	if len(d3) != 1 || d3[0].TextContent() != "12" {
		t.Errorf("delta3 = %v", texts(d3))
	}
}

// TestDeltaForMatchesRecompute: on an insert-only stream the
// incremental strategy emits, batch by batch, exactly the multiset the
// recompute-and-diff baseline does.
func TestDeltaForMatchesRecompute(t *testing.T) {
	q := MustParse(`for $i in doc("c")/item where $i/price < 50 return <hit>{$i/name/text()}</hit>`)
	stream := func() (*xmltree.Node, *Env) {
		cat := workload.Catalog(workload.CatalogSpec{Items: 500, PriceMax: 100, Seed: 21})
		return cat, &Env{Resolve: func(string) (*xmltree.Node, error) { return cat, nil }}
	}
	recCat, recEnv := stream()
	incCat, incEnv := stream()
	rec := NewRecompute(q, recEnv)
	inc, ok := NewDeltaFor(q, incEnv)
	if !ok {
		t.Fatal("NewDeltaFor rejected the query")
	}
	for b := 0; b <= 8; b++ {
		for k := 0; b > 0 && k < 5; k++ {
			for _, cat := range []*xmltree.Node{recCat, incCat} {
				cat.AppendChild(xmltree.E("item",
					xmltree.A("id", fmt.Sprintf("new-%d-%d", b, k)),
					xmltree.E("name", fmt.Sprintf("fresh-%d-%d", b, k)),
					xmltree.E("price", fmt.Sprint((b*5+k)%100))))
			}
		}
		want, err := rec.Delta()
		if err != nil {
			t.Fatal(err)
		}
		got := mustEvents(t, inc).AddedTrees()
		counts := map[xmltree.Digest]int{}
		for _, n := range want {
			counts[xmltree.Hash(n)]++
		}
		for _, n := range got {
			counts[xmltree.Hash(n)]--
		}
		for _, c := range counts {
			if c != 0 {
				t.Fatalf("batch %d: incremental emitted %v, recompute %v", b, texts(got), texts(want))
			}
		}
		if b == 0 && len(want) == 0 {
			t.Fatal("the initial delta is empty")
		}
	}
}

func TestDeltaForRejectsShapes(t *testing.T) {
	env := &Env{}
	cases := []string{
		`doc("c")/item`, // not FLWR
		`for $a in doc("c")/x, $b in doc("c")/y return $a`, // two fors
		`param $p; for $i in $p return $i`,                 // params
	}
	for _, src := range cases {
		if _, ok := NewDeltaFor(MustParse(src), env); ok {
			t.Errorf("NewDeltaFor(%q) accepted, want rejection", src)
		}
	}
}

func TestDeltaForWithLet(t *testing.T) {
	cat := xmltree.MustParse(`<catalog><item><price>10</price></item></catalog>`)
	env := &Env{Resolve: func(string) (*xmltree.Node, error) { return cat, nil }}
	q := MustParse(`for $i in doc("c")/item let $p := $i/price where $p < 15 return <h>{$p/text()}</h>`)
	inc, ok := NewDeltaFor(q, env)
	if !ok {
		t.Fatal("NewDeltaFor rejected for+let query")
	}
	d1 := mustEvents(t, inc).AddedTrees()
	if len(d1) != 1 || d1[0].TextContent() != "10" {
		t.Errorf("delta = %v", texts(d1))
	}
}
