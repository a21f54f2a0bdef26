package xmltree

import (
	"errors"
	"strings"
	"testing"
)

// room is a Budget of fixed size.
type room int

func (r *room) Keep(size int) bool {
	if size > int(*r) {
		return false
	}
	*r -= room(size)
	return true
}

// TestStoredEncodingIsKept: the first AppendStored of a published node
// keeps its bytes and charges them to the budget; the second returns
// them from the same backing array and walks no node below it; Append,
// AppendLine and ByteSize of a tree holding the node copy them.
func TestStoredEncodingIsKept(t *testing.T) {
	item := MustParse(`<item id="7"><name>chair</name><price>30</price></item>`)
	AssignIDs(item, &SeqIDGen{})
	budget := room(1000)
	first, err := AppendStored([]byte("<x:row>"), item, &budget, true)
	want := `<x:row><item id="7"><name>chair</name><price>30</price></item>`
	if string(first) != want || err != nil {
		t.Fatalf("AppendStored = %q, %v; want %q", first, err, want)
	}
	m := item.memo.Load()
	if m == nil || string(*m) != want[len("<x:row>"):] || int(budget) != 1000-len(*m) {
		t.Fatalf("kept %v with %d bytes of budget left", m, budget)
	}

	// A published node is never written. This one is, below the node,
	// so that an encoding which walked the subtree would show it.
	item.Children[0].Children[0].Text = "stool"
	for i := 0; i < 2; i++ {
		again, err := AppendStored(nil, item, &budget, i == 0)
		if string(again) != want[len("<x:row>"):] || err != nil {
			t.Errorf("encoding %d = %q, %v; want the kept bytes", i+2, again, err)
		}
	}
	if item.memo.Load() != m || &(*item.memo.Load())[0] != &(*m)[0] || int(budget) != 1000-len(*m) {
		t.Errorf("a second encoding replaced or charged the kept bytes")
	}
	holder := E("catalog", item)
	if s := Serialize(holder); !strings.Contains(s, "chair") {
		t.Errorf("Serialize of a tree holding the node = %q, want its kept bytes", s)
	}
	if line, _ := AppendLine(nil, holder); !strings.Contains(string(line), "chair") {
		t.Errorf("AppendLine of a tree holding the node = %q, want its kept bytes", line)
	}
	if holder.ByteSize() != len(Serialize(holder)) {
		t.Errorf("ByteSize %d, Serialize writes %d", holder.ByteSize(), len(Serialize(holder)))
	}
}

// TestStoredEncodingKeptOnlyWhenAllowed: nothing is kept on a node
// without an ID, without a budget, past the budget, or for bytes
// holding a CR or LF, whose line form differs; all are written as
// AppendLine writes them.
func TestStoredEncodingKeptOnlyWhenAllowed(t *testing.T) {
	ided := func(s string) *Node {
		n := MustParse(s)
		AssignIDs(n, &SeqIDGen{})
		return n
	}
	plenty, tight := room(1000), room(5)
	for _, c := range []struct {
		name string
		n    *Node
		b    Budget
		err  error
	}{
		{"no ID", MustParse(`<a>x</a>`), &plenty, nil},
		{"no budget", ided(`<a>x</a>`), nil, nil},
		{"past the budget", ided(`<a>long text</a>`), &tight, nil},
		{"a line break in text", ided("<a>x\ny</a>"), &plenty, nil},
		{"a line break in a comment", ided("<a><!--x\ny--></a>"), &plenty, ErrLineBreak},
	} {
		want, wantErr := AppendLine(nil, c.n)
		got, err := AppendStored(nil, c.n, c.b, true)
		if string(got) != string(want) || !errors.Is(err, c.err) || !errors.Is(wantErr, c.err) {
			t.Errorf("%s: AppendStored = %q, %v; want %q, %v", c.name, got, err, want, c.err)
		}
		if c.n.memo.Load() != nil {
			t.Errorf("%s: an encoding was kept", c.name)
		}
	}
	if plenty != 1000 || tight != 5 {
		t.Errorf("budgets charged to %d and %d, want untouched", plenty, tight)
	}
}
