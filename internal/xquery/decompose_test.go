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
		// The local part would return its input unchanged.
		`for $i in doc("catalog")/item where $i/price < 1 return $i`,
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

// recompute is the oracle for DeltaFor on insert-only streams: it
// evaluates the whole query at every step and returns only the results
// by which the result multiset (by canonical digest) outgrew every
// earlier step's.
type recompute struct {
	q    *Query
	env  *Env
	seen map[xmltree.Digest]int
}

func newRecompute(q *Query, env *Env) *recompute {
	return &recompute{q: q, env: env, seen: map[xmltree.Digest]int{}}
}

func (r *recompute) delta(t *testing.T) []*xmltree.Node {
	t.Helper()
	full, err := r.q.Eval(r.env)
	if err != nil {
		t.Fatalf("full evaluation: %v", err)
	}
	counts := map[xmltree.Digest]int{}
	var out []*xmltree.Node
	for _, n := range full {
		d := xmltree.Hash(n)
		counts[d]++
		if counts[d] > r.seen[d] {
			out = append(out, n)
		}
	}
	for d, c := range counts {
		r.seen[d] = max(r.seen[d], c)
	}
	return out
}

// TestRecomputeDelta: the multiset cases of a continuous query — a
// step with no change ships nothing, an append ships its one result,
// duplicate content grows the multiset and ships again — hold for the
// full-evaluation diff and for DeltaFor alike.
func TestRecomputeDelta(t *testing.T) {
	cat := xmltree.MustParse(`<catalog><item><price>10</price></item></catalog>`)
	env := &Env{Resolve: func(string) (*xmltree.Node, error) { return cat, nil }}
	q := MustParse(`for $i in doc("c")/item where $i/price < 100 return <hit>{$i/price/text()}</hit>`)
	rc := newRecompute(q, env)
	inc, ok := NewDeltaFor(q, nil)
	if !ok {
		t.Fatal("NewDeltaFor rejected single-for query")
	}
	step := func() (full, incremental []*xmltree.Node) {
		return rc.delta(t), mustEvents(t, inc, env).AddedTrees()
	}

	d1, i1 := step()
	if len(d1) != 1 || len(i1) != 1 {
		t.Fatalf("delta1 = %d results, incremental %d", len(d1), len(i1))
	}
	// No change: no delta.
	if d2, i2 := step(); len(d2) != 0 || len(i2) != 0 {
		t.Errorf("delta2 = %d, incremental %d, want 0", len(d2), len(i2))
	}
	// Append an item: one new result.
	cat.AppendChild(xmltree.E("item", xmltree.E("price", "20")))
	if d3, i3 := step(); len(d3) != 1 || d3[0].TextContent() != "20" || len(i3) != 1 || i3[0].TextContent() != "20" {
		t.Errorf("delta3 = %v, incremental %v", texts(d3), texts(i3))
	}
	// Duplicate content counts via multiset: same price again.
	cat.AppendChild(xmltree.E("item", xmltree.E("price", "20")))
	if d4, i4 := step(); len(d4) != 1 || len(i4) != 1 {
		t.Errorf("delta4 = %d, incremental %d, want 1 (multiset growth)", len(d4), len(i4))
	}
}

func TestDeltaForIncremental(t *testing.T) {
	cat := xmltree.MustParse(`<catalog><item><price>10</price></item></catalog>`)
	env := &Env{Resolve: func(string) (*xmltree.Node, error) { return cat, nil }}
	q := MustParse(`for $i in doc("c")/item where $i/price < 15 return <hit>{$i/price/text()}</hit>`)
	inc, ok := NewDeltaFor(q, nil)
	if !ok {
		t.Fatal("NewDeltaFor rejected single-for query")
	}
	d1 := mustEvents(t, inc, env).AddedTrees()
	if len(d1) != 1 {
		t.Fatalf("delta1 = %d", len(d1))
	}
	d2 := mustEvents(t, inc, env).AddedTrees()
	if len(d2) != 0 {
		t.Errorf("delta2 = %d, want 0", len(d2))
	}
	cat.AppendChild(xmltree.E("item", xmltree.E("price", "12")))
	cat.AppendChild(xmltree.E("item", xmltree.E("price", "99")))
	d3 := mustEvents(t, inc, env).AddedTrees()
	if len(d3) != 1 || d3[0].TextContent() != "12" {
		t.Errorf("delta3 = %v", texts(d3))
	}
}

// TestDeltaForMatchesRecompute: on an insert-only stream the
// incremental strategy emits, batch by batch, exactly the multiset the
// recompute-and-diff oracle does.
func TestDeltaForMatchesRecompute(t *testing.T) {
	q := MustParse(`for $i in doc("c")/item where $i/price < 50 return <hit>{$i/name/text()}</hit>`)
	stream := func() (*xmltree.Node, *Env) {
		cat := workload.Catalog(workload.CatalogSpec{Items: 500, PriceMax: 100, Seed: 21})
		return cat, &Env{Resolve: func(string) (*xmltree.Node, error) { return cat, nil }}
	}
	recCat, recEnv := stream()
	incCat, incEnv := stream()
	rec := newRecompute(q, recEnv)
	inc, ok := NewDeltaFor(q, nil)
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
		want := rec.delta(t)
		got := mustEvents(t, inc, incEnv).AddedTrees()
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
	cases := []string{
		`doc("c")/item`, // not FLWR
		`for $a in doc("c")/x, $b in doc("c")/y return $a`, // two fors
		`param $p; for $i in $p return $i`,                 // params
	}
	for _, src := range cases {
		if _, ok := NewDeltaFor(MustParse(src), nil); ok {
			t.Errorf("NewDeltaFor(%q) accepted, want rejection", src)
		}
	}
}

func TestDeltaForWithLet(t *testing.T) {
	cat := xmltree.MustParse(`<catalog><item><price>10</price></item></catalog>`)
	env := &Env{Resolve: func(string) (*xmltree.Node, error) { return cat, nil }}
	q := MustParse(`for $i in doc("c")/item let $p := $i/price where $p < 15 return <h>{$p/text()}</h>`)
	inc, ok := NewDeltaFor(q, nil)
	if !ok {
		t.Fatal("NewDeltaFor rejected for+let query")
	}
	d1 := mustEvents(t, inc, env).AddedTrees()
	if len(d1) != 1 || d1[0].TextContent() != "10" {
		t.Errorf("delta = %v", texts(d1))
	}
}

// TestDeltaForBindsArguments: a parameterized body is maintained over
// the argument forests it was created with, bound as Eval binds them.
func TestDeltaForBindsArguments(t *testing.T) {
	cat := xmltree.MustParse(`<catalog><item><price>10</price></item><item><price>20</price></item></catalog>`)
	env := &Env{Resolve: func(string) (*xmltree.Node, error) { return cat, nil }}
	q := MustParse(`param $max; for $i in doc("c")/item where $i/price < $max return <h>{$i/price/text()}</h>`)
	if _, ok := NewDeltaFor(q, nil); ok {
		t.Error("NewDeltaFor accepted a parameterized query without its argument")
	}
	inc, ok := NewDeltaFor(q, [][]*xmltree.Node{{xmltree.E("max", "15")}})
	if !ok {
		t.Fatal("NewDeltaFor rejected a parameterized single-for query")
	}
	if d := mustEvents(t, inc, env).AddedTrees(); len(d) != 1 || d[0].TextContent() != "10" {
		t.Errorf("delta = %v, want [10]", texts(d))
	}
}
