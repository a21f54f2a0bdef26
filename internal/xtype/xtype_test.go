package xtype

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"axml/internal/workload"
	"axml/internal/xmltree"
)

func TestParseContentModel(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"EMPTY", "EMPTY"},
		{"ANY", "ANY"},
		{"a", "a"},
		{"(a, b)", "(a, b)"},
		{"(a | b)", "(a | b)"},
		{"(a, b*, c?)", "(a, b*, c?)"},
		{"((a | b)+, c)", "((a | b)+, c)"},
		{"(a)", "a"},
		{"a*", "a*"},
	}
	for _, tc := range cases {
		m, err := ParseContentModel(tc.src)
		if err != nil {
			t.Errorf("ParseContentModel(%q): %v", tc.src, err)
			continue
		}
		if got := m.String(); got != tc.want {
			t.Errorf("ParseContentModel(%q).String() = %q, want %q", tc.src, got, tc.want)
		}
	}
}

func TestParseContentModelErrors(t *testing.T) {
	bad := []string{"", "(a", "(a,)", "a)", "(a,,b)", "(a | )", "(", "a b"}
	for _, src := range bad {
		if _, err := ParseContentModel(src); err == nil {
			t.Errorf("ParseContentModel(%q) succeeded, want error", src)
		}
	}
}

func match(t *testing.T, model string, seq ...string) bool {
	t.Helper()
	m, err := ParseContentModel(model)
	if err != nil {
		t.Fatalf("parse %q: %v", model, err)
	}
	return CompileModel(m).Match(seq)
}

func TestAutomatonBasics(t *testing.T) {
	if !match(t, "EMPTY") {
		t.Error("EMPTY should match empty")
	}
	if match(t, "EMPTY", "a") {
		t.Error("EMPTY should reject a")
	}
	if !match(t, "ANY", "x", "y", "z") {
		t.Error("ANY should match everything")
	}
	if !match(t, "a", "a") {
		t.Error("a should match [a]")
	}
	if match(t, "a") {
		t.Error("a should reject empty")
	}
	if match(t, "a", "a", "a") {
		t.Error("a should reject [a a]")
	}
}

func TestAutomatonSeqChoice(t *testing.T) {
	if !match(t, "(a, b, c)", "a", "b", "c") {
		t.Error("seq should match in order")
	}
	if match(t, "(a, b, c)", "a", "c", "b") {
		t.Error("seq should reject out of order")
	}
	if !match(t, "(a | b)", "b") {
		t.Error("choice should match b")
	}
	if match(t, "(a | b)", "a", "b") {
		t.Error("choice should reject both")
	}
}

func TestAutomatonRepetition(t *testing.T) {
	if !match(t, "a*") || !match(t, "a*", "a", "a", "a") {
		t.Error("a* basics")
	}
	if match(t, "a*", "b") {
		t.Error("a* should reject b")
	}
	if match(t, "a+") {
		t.Error("a+ should reject empty")
	}
	if !match(t, "a+", "a") || !match(t, "a+", "a", "a") {
		t.Error("a+ basics")
	}
	if !match(t, "a?") || !match(t, "a?", "a") {
		t.Error("a? basics")
	}
	if match(t, "a?", "a", "a") {
		t.Error("a? should reject two")
	}
}

func TestAutomatonComposite(t *testing.T) {
	model := "(title, (author | editor)+, year?)"
	if !match(t, model, "title", "author", "author") {
		t.Error("composite 1")
	}
	if !match(t, model, "title", "editor", "year") {
		t.Error("composite 2")
	}
	if match(t, model, "title", "year") {
		t.Error("composite should require author|editor")
	}
	if match(t, model, "author", "title") {
		t.Error("composite order")
	}
	nested := "((a, b)* , c)"
	if !match(t, nested, "a", "b", "a", "b", "c") {
		t.Error("nested star")
	}
	if match(t, nested, "a", "c") {
		t.Error("incomplete pair")
	}
	if !match(t, nested, "c") {
		t.Error("zero pairs")
	}
}

func TestAutomatonNullableSeq(t *testing.T) {
	if !match(t, "(a?, b?)") {
		t.Error("all-nullable seq should match empty")
	}
	if !match(t, "(a?, b?)", "b") {
		t.Error("(a?,b?) should match [b]")
	}
	if !match(t, "(a*, b)", "b") {
		t.Error("(a*,b) should match [b]")
	}
}

// naiveMatch is an exponential reference matcher used to cross-check
// the Glushkov automaton on random models and inputs.
func naiveMatch(m ContentModel, seq []string) bool {
	type state struct{ rest []string }
	var matchRec func(m ContentModel, seq []string, k func([]string) bool) bool
	matchRec = func(m ContentModel, seq []string, k func([]string) bool) bool {
		switch v := m.(type) {
		case CMName:
			if len(seq) > 0 && seq[0] == v.Label {
				return k(seq[1:])
			}
			return false
		case CMSeq:
			var seqK func(items []ContentModel, seq []string) bool
			seqK = func(items []ContentModel, seq []string) bool {
				if len(items) == 0 {
					return k(seq)
				}
				return matchRec(items[0], seq, func(rest []string) bool {
					return seqK(items[1:], rest)
				})
			}
			return seqK(v.Items, seq)
		case CMChoice:
			for _, alt := range v.Alts {
				if matchRec(alt, seq, k) {
					return true
				}
			}
			return false
		case CMStar:
			if k(seq) {
				return true
			}
			return matchRec(v.X, seq, func(rest []string) bool {
				if len(rest) == len(seq) {
					return false // no progress; avoid infinite loop
				}
				return matchRec(CMStar{X: v.X}, rest, k)
			})
		case CMPlus:
			return matchRec(CMSeq{Items: []ContentModel{v.X, CMStar{X: v.X}}}, seq, k)
		case CMOpt:
			if k(seq) {
				return true
			}
			return matchRec(v.X, seq, k)
		case CMEmpty:
			return k(seq)
		case CMAny:
			return k(nil) // consume everything
		}
		return false
	}
	_ = state{}
	return matchRec(m, seq, func(rest []string) bool { return len(rest) == 0 })
}

func randomModel(r *rand.Rand, depth int) ContentModel {
	labels := []string{"a", "b", "c"}
	if depth <= 0 {
		return CMName{Label: labels[r.Intn(len(labels))]}
	}
	switch r.Intn(6) {
	case 0:
		n := r.Intn(3) + 1
		items := make([]ContentModel, n)
		for i := range items {
			items[i] = randomModel(r, depth-1)
		}
		return CMSeq{Items: items}
	case 1:
		n := r.Intn(2) + 2
		alts := make([]ContentModel, n)
		for i := range alts {
			alts[i] = randomModel(r, depth-1)
		}
		return CMChoice{Alts: alts}
	case 2:
		return CMStar{X: randomModel(r, depth-1)}
	case 3:
		return CMPlus{X: randomModel(r, depth-1)}
	case 4:
		return CMOpt{X: randomModel(r, depth-1)}
	default:
		return CMName{Label: labels[r.Intn(len(labels))]}
	}
}

// Property: the Glushkov automaton agrees with the naive backtracking
// matcher on random models and random inputs.
func TestQuickGlushkovAgreesWithNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomModel(r, 2)
		a := CompileModel(m)
		labels := []string{"a", "b", "c"}
		for trial := 0; trial < 20; trial++ {
			n := r.Intn(6)
			seq := make([]string, n)
			for i := range seq {
				seq[i] = labels[r.Intn(len(labels))]
			}
			if a.Match(seq) != naiveMatch(m, seq) {
				t.Logf("disagreement on model %s input %v: glushkov=%v naive=%v",
					m, seq, a.Match(seq), naiveMatch(m, seq))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

const catalogSchema = `
# product catalog
root catalog
catalog := (item*, note?)
item := (name, price?) @id @cat?
name := #PCDATA
price := #PCDATA
note := MIXED
`

func TestParseSchema(t *testing.T) {
	s := MustParseSchema(catalogSchema)
	if s.Root != "catalog" {
		t.Errorf("root = %q", s.Root)
	}
	item := s.Elements["item"]
	if item == nil {
		t.Fatal("item not declared")
	}
	if len(item.Attrs) != 2 || !item.Attrs[0].Required || item.Attrs[1].Required {
		t.Errorf("item attrs = %+v", item.Attrs)
	}
	if !s.Elements["note"].AllowText {
		t.Error("note should allow text")
	}
}

func TestParseSchemaErrors(t *testing.T) {
	bad := []string{
		"catalog := (a)",                 // no root
		"root x",                         // root not declared
		"root a\na := (b\n",              // bad model
		"root a\na := EMPTY\na := EMPTY", // dup
		"root a\nnonsense line",
		"root a\na := ",
		"root a\na := EMPTY @",
		"root a\na := EMPTY x",
	}
	for _, src := range bad {
		if _, err := ParseSchema(src); err == nil {
			t.Errorf("ParseSchema(%q) succeeded, want error", src)
		}
	}
}

func TestValidate(t *testing.T) {
	s := MustParseSchema(catalogSchema)
	good := xmltree.MustParse(`<catalog>
		<item id="1"><name>chair</name><price>10</price></item>
		<item id="2" cat="x"><name>desk</name></item>
		<note>hello <name>world</name></note>
	</catalog>`)
	if errs := s.Validate(good); len(errs) != 0 {
		t.Errorf("valid doc rejected: %v", errs)
	}

	cases := []struct {
		name string
		xml  string
		want string
	}{
		{"wrong root", `<cat/>`, "root label"},
		{"missing required attr", `<catalog><item><name>x</name></item></catalog>`, "missing required attribute"},
		{"undeclared attr", `<catalog><item id="1" zz="q"><name>x</name></item></catalog>`, "undeclared attribute"},
		{"bad order", `<catalog><item id="1"><price>1</price><name>x</name></item></catalog>`, "content model"},
		{"undeclared element", `<catalog><bogus/></catalog>`, "content model"},
		{"text where forbidden", `<catalog>stray text</catalog>`, "text content"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := xmltree.MustParse(tc.xml)
			errs := s.Validate(n)
			if len(errs) == 0 {
				t.Fatalf("invalid doc accepted")
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("errors %v do not mention %q", errs, tc.want)
			}
		})
	}
}

func TestValidateMixedAny(t *testing.T) {
	s := MustParseSchema("root note\nnote := MIXED")
	n := xmltree.MustParse(`<note>text <undeclared/> more</note>`)
	if !s.Valid(n) {
		t.Errorf("MIXED should accept undeclared children: %v", s.Validate(n))
	}
}

func TestSignature(t *testing.T) {
	s := MustParseSchema(catalogSchema)
	sig := &Signature{
		In:  []*TypeRef{{Schema: s}},
		Out: AnyType,
	}
	good := xmltree.MustParse(`<catalog><item id="1"><name>x</name></item></catalog>`)
	if err := sig.CheckInput([]*xmltree.Node{good}); err != nil {
		t.Errorf("CheckInput: %v", err)
	}
	bad := xmltree.MustParse(`<wrong/>`)
	if err := sig.CheckInput([]*xmltree.Node{bad}); err == nil {
		t.Error("CheckInput should fail on wrong type")
	}
	if err := sig.CheckInput(nil); err == nil {
		t.Error("CheckInput should fail on arity mismatch")
	}
	if err := sig.CheckOutput(bad); err != nil {
		t.Errorf("AnyType output should accept anything: %v", err)
	}
	strict := &Signature{Out: &TypeRef{Schema: s}}
	if err := strict.CheckOutput(bad); err == nil {
		t.Error("CheckOutput should fail on wrong type")
	}
	if got := sig.String(); !strings.Contains(got, "catalog") || !strings.Contains(got, "xs:any") {
		t.Errorf("Signature.String = %q", got)
	}
}

func TestNilSignatureAccepts(t *testing.T) {
	var sig *Signature
	if err := sig.CheckInput([]*xmltree.Node{xmltree.E("x")}); err != nil {
		t.Error("nil signature should accept any input")
	}
	if err := sig.CheckOutput(xmltree.E("y")); err != nil {
		t.Error("nil signature should accept any output")
	}
}

// BenchmarkGlushkovValidate checks a 200-item catalog against its
// schema with the compiled Glushkov automata.
func BenchmarkGlushkovValidate(b *testing.B) {
	schema := MustParseSchema(`
root catalog
catalog := item*
item := (name, price, desc?) @id @cat
name := #PCDATA
price := #PCDATA
desc := #PCDATA
`)
	tree := workload.Catalog(workload.CatalogSpec{Items: 200, PriceMax: 100, DescWords: 3, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !schema.Valid(tree) {
			b.Fatal("invalid")
		}
	}
}
