package xmltree

import (
	"bytes"
	"testing"
)

func TestCutElements(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []string // nil: refused
	}{
		{``, []string{}},
		{`<a/>`, []string{`<a/>`}},
		{`<a/><b>t</b><c x="1"><d/>u<e></e></c>`, []string{`<a/>`, `<b>t</b>`, `<c x="1"><d/>u<e></e></c>`}},
		{`<a x="/>" y='">'>z</a><b x='/'/>`, []string{`<a x="/>" y='">'>z</a>`, `<b x='/'/>`}},
		{`<a>x > y</a><b></b >`, []string{`<a>x > y</a>`, `<b></b >`}},
		{"<a>line\r\none</a>", []string{"<a>line\r\none</a>"}},
		{`<a/> <b/>`, nil},
		{`text<a/>`, nil},
		{`<a/>text`, nil},
		{`<a><!--c--></a>`, nil},
		{`<a><?pi x?></a>`, nil},
		{`<a><![CDATA[x]]></a>`, nil},
		{`<!--c--><a/>`, nil},
		{`<a>`, nil},
		{`<a><b></a>`, nil},
		{`<a x="1>`, nil},
		{`<a`, nil},
		{`<`, nil},
		{`</a>`, nil},
		{`<1a/>`, nil},
		{`<a>x<`, nil},
	} {
		got, ok := CutElements([]byte(c.in))
		if c.want == nil {
			if ok {
				t.Errorf("CutElements(%q) = %q, want it refused", c.in, got)
			}
			continue
		}
		if !ok || len(got) != len(c.want) {
			t.Errorf("CutElements(%q) = %q, %v, want %q", c.in, got, ok, c.want)
			continue
		}
		for i := range got {
			if string(got[i]) != c.want[i] || cap(got[i]) != len(got[i]) {
				t.Errorf("CutElements(%q)[%d] = %q (cap %d), want %q", c.in, i, got[i], cap(got[i]), c.want[i])
			}
		}
	}
}

// FuzzCutElements holds the cutter to Parse over its input as given
// and over the forest Append writes for the document element's
// children, the way a peer writes a reply:
//   - the elements it cuts are its input, in order;
//   - over well-formed content, each element parses to the tree Parse
//     reads at its place (canonical hash, §2.3); over content Parse
//     refuses, some element fails to parse;
//   - it accepts a written forest exactly when every tree is an element
//     holding no comment or processing instruction, and then an element
//     with no CR or LF is already AppendLine's bytes for its tree, which
//     is what lets the wire write it unparsed.
func FuzzCutElements(f *testing.F) {
	for _, in := range parseCorpus() {
		f.Add(in)
	}
	f.Add(`<a x="/>" y='">'>z</a><b/>`)
	f.Add(`<a>1</a><b>2</b><a>3</a>`)
	f.Fuzz(func(t *testing.T, in string) {
		elems, ok := CutElements([]byte(in))
		if ok {
			if joined := string(bytes.Join(elems, nil)); joined != in {
				t.Fatalf("CutElements(%q) cut %q", in, elems)
			}
			wrapped, werr := Parse("<r>" + in + "</r>")
			failed := false
			for i, e := range elems {
				n, err := Parse(string(e))
				if err != nil {
					failed = true
					continue
				}
				if werr == nil && (i >= len(wrapped.Children) || Hash(n) != Hash(wrapped.Children[i])) {
					t.Fatalf("CutElements(%q)[%d] = %q parses to another tree than Parse reads there", in, i, e)
				}
			}
			if werr == nil && (failed || len(elems) != len(wrapped.Children)) {
				t.Fatalf("CutElements(%q) = %q, which Parse reads otherwise", in, elems)
			}
			if werr != nil && !failed {
				t.Fatalf("CutElements(%q) = %q: every element parses, the content does not: %v", in, elems, werr)
			}
		}

		root, err := Parse(in)
		if err != nil {
			return
		}
		var forest []byte
		want := true
		for _, c := range root.Children {
			forest = Append(forest, c)
			want = want && c.Kind == ElementNode && !holdsMarkup(c)
		}
		elems, ok = CutElements(forest)
		if ok != want {
			t.Fatalf("CutElements(%q) accepted %v, want %v", forest, ok, want)
		}
		if !ok {
			return
		}
		for i, e := range elems {
			n, err := Parse(string(e))
			if err != nil || Hash(n) != Hash(root.Children[i]) {
				t.Fatalf("CutElements(%q)[%d] = %q does not parse to the tree written there: %v", forest, i, e, err)
			}
			if line, err := AppendLine(nil, n); !bytes.ContainsAny(e, "\r\n") && (err != nil || string(line) != string(e)) {
				t.Fatalf("%q is not AppendLine's bytes for its tree, %q (%v)", e, line, err)
			}
		}
	})
}

// holdsMarkup reports whether n's subtree holds a comment or a
// processing instruction.
func holdsMarkup(n *Node) bool {
	found := false
	n.Walk(func(m *Node) bool {
		found = found || m.Kind == CommentNode || m.Kind == ProcInstNode
		return !found
	})
	return found
}
