package xmltree

import (
	"errors"
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

// parseErrorCases are inputs Parse refuses; want, when set, is part of
// the error's message.
var parseErrorCases = []struct {
	name  string
	input string
	want  string
}{
	{"empty", ``, `expected '<', found end of input`},
	{"blank", " \n", `expected '<', found end of input`},
	{"lone lt", `<`, `expected name, found end of input`},
	{"text", `x`, `expected '<', found "x"`},
	{"unclosed", `<a>`, ``},
	{"mismatched", `<a></b>`, ``},
	{"truncated tag", `<a`, ``},
	{"bad attr", `<a id></a>`, ``},
	{"dup attr", `<a x="1" x="2"/>`, ``},
	{"trailing", `<a/><b/>`, ``},
	{"bad entity", `<a>&nope;</a>`, ``},
	{"lt in attr", `<a x="<"/>`, ``},
	{"stray end", `</a>`, ``},
	{"unterminated comment", `<a><!-- x</a>`, ``},
	{"unterminated cdata", `<a><![CDATA[x</a>`, ``},
	{"nul char ref", `<a>&#0;</a>`, ``},
	{"control char ref", `<a>&#1;</a>`, ``},
	{"surrogate char ref", `<a>&#xD800;</a>`, ``},
	{"char ref past unicode", `<a>&#x110000;</a>`, ``},
	{"noncharacter char ref", `<a x="&#xFFFE;"/>`, ``},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.input)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", tc.input)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Parse(%q): %v, want %s", tc.input, err, tc.want)
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

// positionCases give the position and message of each error: text and
// attribute runs are consumed a run at a time, and the position a later
// error reports still counts every byte and line they held.
var positionCases = []struct {
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
	// A reference to no XML 1.0 character is refused where it ends.
	{"<a>one\n&#0;</a>", 2, 5, "bad character reference &#0;"},
	{"<a>&#1;</a>", 1, 8, "bad character reference &#1;"},
	{"<a>x\n y &#xD800;</a>", 2, 12, "bad character reference &#xD800;"},
	{"<a b=\"\n&#x110000;\"/>", 2, 11, "bad character reference &#x110000;"},
	{"<a>&#xFFFE;</a>", 1, 12, "bad character reference &#xFFFE;"},
}

func TestParseErrorPositionAfterRuns(t *testing.T) {
	for _, c := range positionCases {
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

// serializeLine is AppendLine into a string.
func serializeLine(n *Node) (string, error) {
	b, err := AppendLine(nil, n)
	return string(b), err
}

// AppendLine keeps a tree on one line; Serialize writes CR and LF as
// they are, so stored sizes and shipped bytes do not change. A comment
// or processing instruction holding a line break has no line form.
func TestWriteLineEscapesLineBreaks(t *testing.T) {
	n := E("n", A("note", "a\r\nb"), T("line one\nline two\r"))
	line, err := serializeLine(n)
	if want := `<n note="a&#13;&#10;b">line one&#10;line two&#13;</n>`; line != want || err != nil {
		t.Errorf("AppendLine = %s, %v, want %s", line, err, want)
	}
	if got, want := Serialize(n), "<n note=\"a\r\nb\">line one\nline two\r</n>"; got != want {
		t.Errorf("Serialize = %q, want %q", got, want)
	}
	if n.ByteSize() != len(Serialize(n)) {
		t.Errorf("ByteSize %d, Serialize writes %d", n.ByteSize(), len(Serialize(n)))
	}
	back := MustParse(line)
	if !Equal(back, n) || back.Children[0].Text != n.Children[0].Text {
		t.Errorf("round trip: %q", Serialize(back))
	}
	for _, m := range []*Node{
		E("n", NewComment("one\ntwo")),
		E("n", E("x"), &Node{Kind: ProcInstNode, Label: "pi", Text: "a\rb"}),
	} {
		dst := []byte("<x:row>")
		if got, err := AppendLine(dst, m); !errors.Is(err, ErrLineBreak) || string(got) != "<x:row>" {
			t.Errorf("AppendLine(%q) = %q, %v; want the buffer as it was, ErrLineBreak", Serialize(m), got, err)
		}
	}
}

// AppendChild or SetAttr on a parsed element never reaches into the
// child or attribute list of another: every child and attribute slice
// the parser hands out is exactly sized.
func TestParsedChildrenAreIndependent(t *testing.T) {
	const in = `<r k="1"><a k="2"><x k="3"/><y/></a><b k="4" l="5"><z/>t</b><c k="6"/></r>`
	elements := func(root *Node) []*Node {
		var out []*Node
		root.Walk(func(n *Node) bool {
			if n.Kind == ElementNode {
				out = append(out, n)
			}
			return true
		})
		return out
	}
	for i := range elements(MustParse(in)) {
		root := MustParse(in)
		all := elements(root)
		kids := make([][]*Node, len(all))
		attrs := make([][]Attr, len(all))
		for j, n := range all {
			kids[j] = append([]*Node(nil), n.Children...)
			attrs[j] = append([]Attr(nil), n.Attrs...)
		}
		grown := all[i]
		grown.AppendChild(NewElement("extra"))
		grown.SetAttr("extra", "x")
		for j, n := range all {
			if j == i {
				continue
			}
			if !reflect.DeepEqual(n.Children, kids[j]) || !reflect.DeepEqual(n.Attrs, attrs[j]) {
				t.Errorf("growing <%s> changed <%s>: %s", grown.Label, n.Label, Serialize(root))
			}
		}
	}
}

// parseCorpus is FuzzParse's seed corpus, which FuzzCutElements reads
// too.
func parseCorpus() []string {
	out := append([]string(nil), roundTripInputs...)
	for _, c := range parseErrorCases {
		out = append(out, c.input)
	}
	for _, c := range positionCases {
		out = append(out, c.in)
	}
	return append(out,
		`<item id="42" name='chair &amp; desk'/>`,
		`<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</a>`,
		`<a><![CDATA[<not><parsed>&amp;]]></a>`,
		`<?xml version="1.0"?><!-- head --><a><!-- c --><?target data?><b/></a><!-- tail -->`,
		`<!DOCTYPE doc [ <!ELEMENT a (b)> ]><a><b/></a>`,
		`<a x="1 &lt; 2 &amp;&amp; &#10;" y='plain'>one &amp; two &#x3C; three</a>`,
		"<n note=\"a&#13;&#10;b\">line one&#10;line two&#13;</n>",
	)
}

// FuzzParse: Parse never panics; a tree it accepts re-parses from
// Serialize and AppendLine to an Equal tree (AppendLine refusing only a
// tree that holds a line break), and Serialize∘Parse is
// a fixpoint; an error it reports lies inside the input.
func FuzzParse(f *testing.F) {
	for _, in := range parseCorpus() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		n, err := Parse(in)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse(%q): %T %v, want *ParseError", in, err, err)
			}
			lines := strings.Split(in, "\n")
			if pe.Line < 1 || pe.Line > len(lines) || pe.Col < 1 || pe.Col > len(lines[pe.Line-1])+1 {
				t.Fatalf("Parse(%q): error at %d:%d lies outside the input", in, pe.Line, pe.Col)
			}
			return
		}
		out := Serialize(n)
		line, err := serializeLine(n)
		if err != nil && !(errors.Is(err, ErrLineBreak) && strings.ContainsAny(out, "\r\n")) {
			t.Fatalf("Parse(%q): AppendLine refuses %q: %v", in, out, err)
		}
		for _, s := range []string{out, line} {
			if s == "" {
				continue
			}
			back, err := Parse(s)
			if err != nil {
				t.Fatalf("Parse(%q) accepted, its serialization %q does not parse: %v", in, s, err)
			}
			if !Equal(n, back) {
				t.Fatalf("Parse(%q): %q re-parses to a different tree", in, s)
			}
		}
		if again := Serialize(MustParse(out)); again != out {
			t.Fatalf("Parse(%q): Serialize∘Parse moved %q to %q", in, out, again)
		}
	})
}
