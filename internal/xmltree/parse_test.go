package xmltree

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimpleElement(t *testing.T) {
	n, err := Parse(`<a/>`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n.Label != "a" || n.Kind != ElementNode || len(n.Children) != 0 {
		t.Errorf("got %+v", n)
	}
}

func TestParseNested(t *testing.T) {
	n, err := Parse(`<a><b><c/></b><d>text</d></a>`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(n.Children) != 2 {
		t.Fatalf("want 2 children, got %d", len(n.Children))
	}
	b := n.Children[0]
	if b.Label != "b" || len(b.Children) != 1 || b.Children[0].Label != "c" {
		t.Errorf("bad b subtree: %s", Serialize(b))
	}
	d := n.Children[1]
	if d.TextContent() != "text" {
		t.Errorf("want text content %q, got %q", "text", d.TextContent())
	}
}

func TestParseAttributes(t *testing.T) {
	n, err := Parse(`<item id="42" name='chair &amp; desk'/>`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v, ok := n.Attr("id"); !ok || v != "42" {
		t.Errorf("id attr = %q, %v", v, ok)
	}
	if v, ok := n.Attr("name"); !ok || v != "chair & desk" {
		t.Errorf("name attr = %q, %v", v, ok)
	}
}

func TestParseEntities(t *testing.T) {
	n, err := Parse(`<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</a>`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := `<>&"'AB`
	if got := n.TextContent(); got != want {
		t.Errorf("text = %q, want %q", got, want)
	}
}

func TestParseCDATA(t *testing.T) {
	n, err := Parse(`<a><![CDATA[<not><parsed>&amp;]]></a>`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := `<not><parsed>&amp;`
	if got := n.TextContent(); got != want {
		t.Errorf("text = %q, want %q", got, want)
	}
}

func TestParseCommentAndPI(t *testing.T) {
	n, err := Parse(`<?xml version="1.0"?><!-- head --><a><!-- c --><?target data?><b/></a><!-- tail -->`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n.Label != "a" {
		t.Fatalf("root = %q", n.Label)
	}
	var kinds []Kind
	for _, c := range n.Children {
		kinds = append(kinds, c.Kind)
	}
	want := []Kind{CommentNode, ProcInstNode, ElementNode}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("child kinds = %v, want %v", kinds, want)
	}
}

func TestParseDoctypeSkipped(t *testing.T) {
	n, err := Parse(`<!DOCTYPE doc [ <!ELEMENT a (b)> ]><a><b/></a>`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n.Label != "a" {
		t.Errorf("root = %q", n.Label)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ``},
		{"unclosed", `<a>`},
		{"mismatched", `<a></b>`},
		{"truncated tag", `<a`},
		{"bad attr", `<a id></a>`},
		{"dup attr", `<a x="1" x="2"/>`},
		{"trailing", `<a/><b/>`},
		{"bad entity", `<a>&nope;</a>`},
		{"lt in attr", `<a x="<"/>`},
		{"stray end", `</a>`},
		{"unterminated comment", `<a><!-- x</a>`},
		{"unterminated cdata", `<a><![CDATA[x</a>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.input); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tc.input)
			}
		})
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("<a>\n  <b>\n</a>")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want *ParseError, got %T %v", err, err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
}

func TestParseFragment(t *testing.T) {
	nodes, err := ParseFragment(`<a/> <b>x</b> <c/>`)
	if err != nil {
		t.Fatalf("ParseFragment: %v", err)
	}
	if len(nodes) != 3 {
		t.Fatalf("want 3 nodes, got %d", len(nodes))
	}
	labels := []string{nodes[0].Label, nodes[1].Label, nodes[2].Label}
	if !reflect.DeepEqual(labels, []string{"a", "b", "c"}) {
		t.Errorf("labels = %v", labels)
	}
}

func TestParseFragmentEmpty(t *testing.T) {
	nodes, err := ParseFragment("   \n ")
	if err != nil {
		t.Fatalf("ParseFragment: %v", err)
	}
	if len(nodes) != 0 {
		t.Errorf("want 0 nodes, got %d", len(nodes))
	}
}

var roundTripInputs = []string{
	`<a/>`,
	`<a><b/><c>t</c></a>`,
	`<a x="1" y="two"><b z="&quot;q&quot;"/>mixed<c/></a>`,
	`<r>&lt;escaped&gt; &amp; more</r>`,
}

func TestSerializeRoundTrip(t *testing.T) {
	for _, in := range roundTripInputs {
		n := MustParse(in)
		out := Serialize(n)
		n2 := MustParse(out)
		if !Equal(n, n2) {
			t.Errorf("round trip changed tree:\n in: %s\nout: %s", in, out)
		}
	}
}

func TestSerializeIndent(t *testing.T) {
	n := MustParse(`<a><b>text</b><c><d/></c></a>`)
	out := SerializeIndent(n)
	if !strings.Contains(out, "  <b>text</b>") {
		t.Errorf("indented output missing inline text element:\n%s", out)
	}
	n2 := MustParse(out)
	// Whitespace-only text nodes introduced by indentation must not
	// change the element structure.
	stripWhitespaceText(n2)
	if !Equal(n, n2) {
		t.Errorf("indent round trip changed tree:\n%s\nvs\n%s", Serialize(n), Serialize(n2))
	}
}

func stripWhitespaceText(n *Node) {
	kept := n.Children[:0]
	for _, c := range n.Children {
		if c.Kind == TextNode && strings.TrimSpace(c.Text) == "" {
			continue
		}
		stripWhitespaceTextIfElement(c)
		kept = append(kept, c)
	}
	n.Children = kept
}

func stripWhitespaceTextIfElement(n *Node) {
	if n.Kind == ElementNode {
		stripWhitespaceText(n)
	}
}

// randomTree generates a random tree for property tests.
func randomTree(r *rand.Rand, depth int) *Node {
	labels := []string{"a", "b", "c", "item", "name"}
	n := NewElement(labels[r.Intn(len(labels))])
	if r.Intn(2) == 0 {
		n.SetAttr("k", string(rune('a'+r.Intn(26))))
	}
	if depth <= 0 {
		return n
	}
	kids := r.Intn(4)
	lastWasText := false
	for i := 0; i < kids; i++ {
		// Avoid adjacent text nodes: they merge on re-parse, which is a
		// property of XML itself, not a parser defect.
		if !lastWasText && r.Intn(4) == 0 {
			n.AppendChild(NewText(randText(r)))
			lastWasText = true
		} else {
			n.AppendChild(randomTree(r, depth-1))
			lastWasText = false
		}
	}
	return n
}

func randText(r *rand.Rand) string {
	chars := []rune("abc <>&\"'é\n")
	k := r.Intn(8) + 1
	var sb strings.Builder
	for i := 0; i < k; i++ {
		sb.WriteRune(chars[r.Intn(len(chars))])
	}
	return sb.String()
}

// Property: Parse(Serialize(t)) is structurally equal to t for random trees.
func TestQuickSerializeParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 4)
		out := Serialize(tree)
		back, err := Parse(out)
		if err != nil {
			t.Logf("parse failed on %q: %v", out, err)
			return false
		}
		return Equal(tree, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: canonical strings agree with Equal.
func TestQuickCanonicalAgreesWithEqual(t *testing.T) {
	f := func(seed1, seed2 int64) bool {
		r1 := rand.New(rand.NewSource(seed1))
		r2 := rand.New(rand.NewSource(seed2))
		t1 := randomTree(r1, 3)
		t2 := randomTree(r2, 3)
		return (Canonical(t1) == Canonical(t2)) == Equal(t1, t2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: hashing agrees with canonical equality.
func TestQuickHashAgreesWithCanonical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		t1 := randomTree(r, 3)
		t2 := randomTree(r, 3)
		sameCanon := Canonical(t1) == Canonical(t2)
		sameHash := Hash(t1) == Hash(t2)
		return sameCanon == sameHash
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: permuting element children does not change the canonical
// form (the unordered model of §2.1). Text nodes keep their positions:
// moving text can make two text runs adjacent, and adjacent runs are
// indistinguishable after serialization, so they are outside the
// invariance.
func TestQuickShuffleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 3)
		shuffled := DeepCopy(tree)
		shuffleElementChildren(r, shuffled)
		return Hash(tree) == Hash(shuffled) && Equal(tree, shuffled)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// shuffleElementChildren permutes the element children among the slots
// occupied by elements, leaving text nodes where they are.
func shuffleElementChildren(r *rand.Rand, n *Node) {
	var idx []int
	for i, c := range n.Children {
		if c.Kind == ElementNode {
			idx = append(idx, i)
		}
	}
	r.Shuffle(len(idx), func(a, b int) {
		n.Children[idx[a]], n.Children[idx[b]] = n.Children[idx[b]], n.Children[idx[a]]
	})
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			shuffleElementChildren(r, c)
		}
	}
}

// Text and attribute runs are consumed a run at a time; the position a
// later error reports still counts every byte and line they held.
func TestParseErrorPositionAfterRuns(t *testing.T) {
	for _, c := range []struct {
		in        string
		line, col int
		msg       string
	}{
		{"<a>line one\nline two\n  <b></a>", 3, 9, "mismatched end tag </a>, expected </b>"},
		{"<a>one\ntwo &bogus; three</a>", 2, 12, "unknown entity &bogus;"},
		{"<a>one &amp;\ntwo\nthree &#xZZ;</a>", 3, 13, "bad character reference &#xZZ;"},
		{"<a>x\r\ny\r\n</b>", 3, 4, "mismatched end tag </b>, expected </a>"},
		{"<a>one\ntwo\nthree", 3, 6, "unexpected end of input inside element <a>"},
		{"<a x=\"one\ntwo<\"/>", 2, 4, "'<' not allowed in attribute value"},
		{"<a x=\"one\ntwo", 2, 4, "unterminated attribute value"},
		{"<a x='p&amp;\nq' y=\"r\ns\">\n<c/></d>", 4, 8, "mismatched end tag </d>, expected </a>"},
		{"<a x=\"1\n22&zz;\"/>", 2, 7, "unknown entity &zz;"},
		{"<a\n x=\"v\"\n y=\"w\nz\" x=\"again\"/>", 4, 13, "duplicate attribute \"x\" on element \"a\""},
	} {
		_, err := Parse(c.in)
		pe, ok := err.(*ParseError)
		if !ok {
			t.Errorf("%q: want *ParseError, got %T %v", c.in, err, err)
			continue
		}
		if pe.Line != c.line || pe.Col != c.col || pe.Msg != c.msg {
			t.Errorf("%q: error at %d:%d %q, want %d:%d %q", c.in, pe.Line, pe.Col, pe.Msg, c.line, c.col, c.msg)
		}
	}
}

func TestParseRunsWithReferences(t *testing.T) {
	n := MustParse(`<a x="1 &lt; 2 &amp;&amp; &#10;" y='plain'>one &amp; two &#x3C; three</a>`)
	if x, _ := n.Attr("x"); x != "1 < 2 && \n" {
		t.Errorf("x = %q", x)
	}
	if y, _ := n.Attr("y"); y != "plain" {
		t.Errorf("y = %q", y)
	}
	if got := n.TextContent(); got != "one & two < three" {
		t.Errorf("text = %q", got)
	}
}

// WriteLine keeps a tree on one line; Serialize writes CR and LF as
// they are, so stored sizes and shipped bytes do not change.
func TestWriteLineEscapesLineBreaks(t *testing.T) {
	n := E("n", A("note", "a\r\nb"), T("line one\nline two\r"))
	if got, want := SerializeLine(n), `<n note="a&#13;&#10;b">line one&#10;line two&#13;</n>`; got != want {
		t.Errorf("SerializeLine = %s, want %s", got, want)
	}
	if got, want := Serialize(n), "<n note=\"a\r\nb\">line one\nline two\r</n>"; got != want {
		t.Errorf("Serialize = %q, want %q", got, want)
	}
	if n.ByteSize() != len(Serialize(n)) {
		t.Errorf("ByteSize %d, Serialize writes %d", n.ByteSize(), len(Serialize(n)))
	}
	back := MustParse(SerializeLine(n))
	if !Equal(back, n) || back.Children[0].Text != n.Children[0].Text {
		t.Errorf("round trip: %q", Serialize(back))
	}
}
