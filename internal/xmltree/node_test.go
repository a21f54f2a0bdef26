package xmltree

import (
	"math/rand"
	"strings"
	"testing"
)

func TestBuilderDSL(t *testing.T) {
	n := E("catalog",
		E("item", A("id", "1"), E("name", T("chair")), E("price", "30")),
		E("item", A("id", "2"), E("name", T("desk"))),
	)
	if n.Label != "catalog" || len(n.Children) != 2 {
		t.Fatalf("bad root: %s", Serialize(n))
	}
	first := n.Children[0]
	if v, _ := first.Attr("id"); v != "1" {
		t.Errorf("id = %q", v)
	}
	if first.FirstChildElement("price").TextContent() != "30" {
		t.Errorf("price text wrong")
	}
	if got := n.Children[1].FirstChildElement("name").TextContent(); got != "desk" {
		t.Errorf("second name = %q", got)
	}
}

func TestMutationMaintainsParents(t *testing.T) {
	root := E("r")
	a := E("a")
	b := E("b")
	root.AppendChild(a)
	root.AppendChild(b)
	if a.Parent != root || b.Parent != root {
		t.Fatal("parents not set")
	}
	c := E("c")
	if err := root.InsertAfter(a, c); err != nil {
		t.Fatalf("InsertAfter: %v", err)
	}
	if root.Children[1] != c || c.Parent != root {
		t.Errorf("InsertAfter misplaced: %s", Serialize(root))
	}
	if !root.RemoveChild(a) {
		t.Error("RemoveChild returned false")
	}
	if a.Parent != nil {
		t.Error("removed child retains parent")
	}
	if root.RemoveChild(a) {
		t.Error("second RemoveChild returned true")
	}
	d := E("d")
	if !root.ReplaceChild(c, d) {
		t.Error("ReplaceChild returned false")
	}
	if root.Children[0] != d || d.Parent != root || c.Parent != nil {
		t.Errorf("ReplaceChild state wrong: %s", Serialize(root))
	}
}

func TestInsertAfterMissingRef(t *testing.T) {
	root := E("r", E("a"))
	if err := root.InsertAfter(E("ghost"), E("x")); err == nil {
		t.Error("InsertAfter with foreign ref should error")
	}
}

func TestDetach(t *testing.T) {
	root := E("r", E("a"), E("b"))
	a := root.Children[0]
	a.Detach()
	if len(root.Children) != 1 || a.Parent != nil {
		t.Errorf("Detach failed: %s", Serialize(root))
	}
	// Detaching a parentless node is a no-op.
	a.Detach()
}

func TestAttrOps(t *testing.T) {
	n := E("x")
	n.SetAttr("a", "1")
	n.SetAttr("b", "2")
	n.SetAttr("a", "3")
	if v, _ := n.Attr("a"); v != "3" {
		t.Errorf("SetAttr replace failed: %q", v)
	}
	if len(n.Attrs) != 2 {
		t.Errorf("attr count = %d", len(n.Attrs))
	}
	n.RemoveAttr("a")
	if _, ok := n.Attr("a"); ok {
		t.Error("RemoveAttr failed")
	}
	n.RemoveAttr("missing") // no-op
}

func TestWalkAndFind(t *testing.T) {
	n := MustParse(`<a><b><c id="x"/></b><c/><d><c/></d></a>`)
	cs := n.FindAll("c")
	if len(cs) != 3 {
		t.Errorf("FindAll(c) = %d nodes", len(cs))
	}
	count := 0
	n.Walk(func(m *Node) bool {
		count++
		return m.Label != "b" // skip below b
	})
	// a, b (skipped below), c, d, c = 5
	if count != 5 {
		t.Errorf("walk visited %d nodes, want 5", count)
	}
}

func TestFindByID(t *testing.T) {
	n := MustParse(`<a><b/><c/></a>`)
	var g SeqIDGen
	AssignIDs(n, &g)
	c := n.Children[1]
	if got := n.FindByID(c.ID); got != c {
		t.Errorf("FindByID returned %v", got)
	}
	if got := n.FindByID(9999); got != nil {
		t.Errorf("FindByID(9999) = %v, want nil", got)
	}
}

func TestAssignIDsPreservesExisting(t *testing.T) {
	n := E("a", E("b"))
	n.ID = 77
	var g SeqIDGen
	AssignIDs(n, &g)
	if n.ID != 77 {
		t.Errorf("existing ID overwritten: %d", n.ID)
	}
	if n.Children[0].ID == 0 {
		t.Error("child not assigned")
	}
}

func TestNodeCountDepthByteSize(t *testing.T) {
	n := MustParse(`<a><b><c/></b><d>txt</d></a>`)
	if got := n.NodeCount(); got != 5 {
		t.Errorf("NodeCount = %d, want 5", got)
	}
	if got := n.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
	if n.ByteSize() != len(Serialize(n)) {
		t.Error("ByteSize != len(Serialize)")
	}
}

// ByteSize counts what Serialize writes: every case of writeNode's
// compact mode, every byte either escaper expands, and bytes neither
// touches. (The ledger's generated catalog is checked beside
// BenchmarkByteSize, from the external test package.)
func TestByteSizeEqualsSerialize(t *testing.T) {
	trees := []*Node{
		E("a"),
		E("a", T("")),
		T(`lt < gt > amp & quot " apos '`),
		E("a", A("v", `lt < gt > amp & quot " apos '`)),
		E("a", A("x", ""), A("y", "1"), E("b"), T("mixed"), E("c", A("z", "&&"))),
		NewComment(" <kept> & as is "),
		{Kind: ProcInstNode, Label: "target", Text: "data <&>"},
		{Kind: ProcInstNode, Label: "target"},
		E("r", NewComment("c"), &Node{Kind: ProcInstNode, Label: "pi", Text: "d"}, &Node{Kind: ProcInstNode, Label: "pi"}),
		E("prix", A("unité", "€"), T("naïve — 日本語 <&> 𝄞")),
		MustParse(`<?xml version="1.0"?><!-- head --><a><!-- c --><?target data?><b/></a>`),
		MustParse(`<a><![CDATA[<not><parsed>&amp;]]></a>`),
	}
	for _, in := range roundTripInputs {
		trees = append(trees, MustParse(in))
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		trees = append(trees, randomTree(r, 4))
	}
	for _, n := range trees {
		s := Serialize(n)
		if got := n.ByteSize(); got != len(s) {
			t.Errorf("ByteSize = %d, want %d = len(%q)", got, len(s), s)
		}
		if allocs := testing.AllocsPerRun(10, func() { n.ByteSize() }); allocs != 0 {
			t.Errorf("ByteSize allocates %v times on %q", allocs, s)
		}
	}
}

func TestRootAndPath(t *testing.T) {
	n := MustParse(`<a><b><c/></b></a>`)
	c := n.Children[0].Children[0]
	if c.Root() != n {
		t.Error("Root wrong")
	}
	if got := c.Path(); got != "/a/b/c" {
		t.Errorf("Path = %q", got)
	}
}

func TestDeepCopyIndependence(t *testing.T) {
	orig := MustParse(`<a x="1"><b>t</b></a>`)
	var g SeqIDGen
	AssignIDs(orig, &g)
	cp := DeepCopy(orig)
	if !Equal(orig, cp) {
		t.Fatal("copy not equal")
	}
	if cp.ID != 0 || cp.Children[0].ID != 0 {
		t.Error("DeepCopy should reset IDs")
	}
	cp.Children[0].Children[0].Text = "changed"
	cp.SetAttr("x", "9")
	if orig.Children[0].TextContent() != "t" {
		t.Error("mutation leaked into original text")
	}
	if v, _ := orig.Attr("x"); v != "1" {
		t.Error("mutation leaked into original attrs")
	}
}

func TestDeepCopyKeepIDs(t *testing.T) {
	orig := MustParse(`<a><b/></a>`)
	var g SeqIDGen
	AssignIDs(orig, &g)
	cp := DeepCopyKeepIDs(orig)
	if cp.ID != orig.ID || cp.Children[0].ID != orig.Children[0].ID {
		t.Error("IDs not preserved")
	}
}

func TestDeepCopyForest(t *testing.T) {
	f := []*Node{E("a"), E("b", T("x"))}
	cp := DeepCopyForest(f)
	if len(cp) != 2 || !Equal(cp[1], f[1]) {
		t.Error("forest copy wrong")
	}
	if DeepCopyForest(nil) != nil {
		t.Error("nil forest should stay nil")
	}
}

func TestTextContent(t *testing.T) {
	n := MustParse(`<a>one<b>two<c>three</c></b><!-- skip -->four</a>`)
	if got := n.TextContent(); got != "onetwothreefour" {
		t.Errorf("TextContent = %q", got)
	}
}

func TestChildHelpers(t *testing.T) {
	n := MustParse(`<a>t<b/><c/><b/></a>`)
	if got := len(n.ChildElements()); got != 3 {
		t.Errorf("ChildElements = %d", got)
	}
	if got := len(n.ChildElementsByLabel("b")); got != 2 {
		t.Errorf("ChildElementsByLabel(b) = %d", got)
	}
	if n.FirstChildElement("c") == nil || n.FirstChildElement("zz") != nil {
		t.Error("FirstChildElement wrong")
	}
}

func TestEqualIgnoresOrderAndComments(t *testing.T) {
	t1 := MustParse(`<a><b/><c>x</c></a>`)
	t2 := MustParse(`<a><c>x</c><!-- note --><b/></a>`)
	if !Equal(t1, t2) {
		t.Error("order/comment difference should not matter")
	}
	t3 := MustParse(`<a><b/><c>y</c></a>`)
	if Equal(t1, t3) {
		t.Error("different text should differ")
	}
}

func TestEqualMultisetSemantics(t *testing.T) {
	// <a><b/><b/></a> vs <a><b/></a>: multiset cardinality matters.
	t1 := MustParse(`<a><b/><b/></a>`)
	t2 := MustParse(`<a><b/></a>`)
	if Equal(t1, t2) {
		t.Error("child multiplicity should matter")
	}
	// Same multiset in different order.
	t3 := MustParse(`<a><b i="1"/><b i="2"/></a>`)
	t4 := MustParse(`<a><b i="2"/><b i="1"/></a>`)
	if !Equal(t3, t4) {
		t.Error("same multiset should be equal")
	}
}

func TestCanonicalStability(t *testing.T) {
	n1 := MustParse(`<a y="2" x="1"><b/><c/></a>`)
	n2 := MustParse(`<a x="1" y="2"><c/><b/></a>`)
	if Canonical(n1) != Canonical(n2) {
		t.Errorf("canonical differs:\n%s\n%s", Canonical(n1), Canonical(n2))
	}
}

func TestSerializeEscaping(t *testing.T) {
	n := E("a", A("q", `he said "hi" & <bye>`), T(`1 < 2 & 3 > 2`))
	out := Serialize(n)
	if strings.Contains(out, `"hi"`) && !strings.Contains(out, "&quot;") {
		t.Errorf("attr not escaped: %s", out)
	}
	back := MustParse(out)
	if v, _ := back.Attr("q"); v != `he said "hi" & <bye>` {
		t.Errorf("attr round trip = %q", v)
	}
	if got := back.TextContent(); got != `1 < 2 & 3 > 2` {
		t.Errorf("text round trip = %q", got)
	}
}

func TestAppendChildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AppendChild on text node should panic")
		}
	}()
	NewText("x").AppendChild(E("a"))
}

func TestKindString(t *testing.T) {
	if ElementNode.String() != "element" || TextNode.String() != "text" {
		t.Error("Kind.String wrong")
	}
	if CommentNode.String() != "comment" || ProcInstNode.String() != "pi" {
		t.Error("Kind.String wrong for comment/pi")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still format")
	}
}
