package xpath_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/wire"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xpath"
)

// afterCommitPaths step up, sideways or to the root from document c's
// root. Each runs as doc("c")/path.
var afterCommitPaths = []string{
	"item[1]/../item",
	"item[1]/following-sibling::item",
	"item[last()]/preceding-sibling::item",
	"item/name/..",
	"descendant::name/ancestor::*",
	"descendant::price/ancestor-or-self::item",
	"descendant::item/@id/..",
	"descendant::item/item/..",
	"descendant::price/preceding-sibling::name",
	"descendant::name/following-sibling::*",
	"descendant::item[count(/c/item) > 2]/name",
	"item[/c/item[1]/@id = @id]",
	"descendant::item[../@id]",
	"descendant::name[../price > 10]",
}

// commitStore is one peer holding document c, reached the two ways a
// query reaches it: an in-process session and a wire client.
type commitStore struct {
	p      *peer.Peer
	local  *session.Local
	client *wire.Client
}

func newCommitStore(t *testing.T, c *xmltree.Node) *commitStore {
	t.Helper()
	sys := core.NewSystem(netsim.New())
	t.Cleanup(sys.Close)
	p := sys.MustAddPeer("store")
	if err := p.InstallDocument("c", c); err != nil {
		t.Fatal(err)
	}
	views := view.NewManager(sys)
	t.Cleanup(views.Close)
	local, err := session.NewLocal(views.System(), views, p.ID)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go (&wire.Server{Peer: p, Views: views}).Serve(l) //nolint:errcheck // closed by test cleanup
	t.Cleanup(func() { l.Close() })
	client, err := wire.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return &commitStore{p: p, local: local, client: client}
}

// routes returns src's rows, serialized, through the session and
// through the wire client.
func (s *commitStore) routes(t *testing.T, src string) (local, remote []string) {
	t.Helper()
	rows, err := s.local.Query(context.Background(), src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	lrows, err := rows.Collect()
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	rrows, err := s.client.QueryAll(src)
	if err != nil {
		t.Fatalf("%s over the wire: %v", src, err)
	}
	return serializeAll(lrows), serializeAll(rrows)
}

func serializeAll(nodes []*xmltree.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = xmltree.Serialize(n)
	}
	return out
}

// check runs every after-commit path through both routes and requires
// the rows the reference evaluator finds on a DeepCopy of the pinned
// document — a tree that shares nothing with any other epoch.
func (s *commitStore) check(t *testing.T, after string) {
	t.Helper()
	h := s.p.Snapshot()
	root, err := h.Root("c")
	h.Release()
	if err != nil {
		t.Fatal(err)
	}
	cp := xmltree.DeepCopy(root)
	for _, path := range afterCommitPaths {
		v, err := xpath.RefEval(xpath.MustCompile(path).Root, &xpath.Context{Node: cp, Trees: xpath.NewTrees(cp)})
		if err != nil {
			t.Fatalf("reference %s: %v", path, err)
		}
		want := serializeAll(v.(xpath.NodeSet))
		src := `doc("c")/` + path
		local, remote := s.routes(t, src)
		if !slices.Equal(local, want) || !slices.Equal(remote, want) {
			t.Errorf("after %s, %s:\n  session   %q\n  wire      %q\n  reference %q", after, src, local, remote, want)
		}
	}
}

// TestUpwardAxesAfterCommit: a third item appended to a two-item
// document is a sibling of the first two, however it is reached.
func TestUpwardAxesAfterCommit(t *testing.T) {
	s := newCommitStore(t, xmltree.MustParse(`<c><item id="1"/><item id="2"/></c>`))
	h := s.p.Snapshot()
	root, err := h.Root("c")
	h.Release()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.p.AddChild(root.ID, xmltree.MustParse(`<item id="3"/>`)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		src  string
		want int
	}{
		{`doc("c")/item[1]/../item`, 3},
		{`doc("c")/item[1]/following-sibling::item`, 2},
	} {
		local, remote := s.routes(t, c.src)
		if len(local) != c.want || len(remote) != c.want {
			t.Errorf("%s: %d rows in session, %d over the wire, want %d", c.src, len(local), len(remote), c.want)
		}
	}
	s.check(t, "one append")
}

// TestUpwardAxesAfterCommits runs the after-commit table after every
// commit of a generated sequence of appends, removals and replacements
// at every depth of the document.
func TestUpwardAxesAfterCommits(t *testing.T) {
	c := xmltree.E("c")
	for k := 1; k <= 4; k++ {
		c.AppendChild(workload.EditItem(k))
	}
	s := newCommitStore(t, c)
	r := rand.New(rand.NewSource(35))
	for step, k := 0, 5; step < 40; step, k = step+1, k+1 {
		h := s.p.Snapshot()
		root, err := h.Root("c")
		h.Release()
		if err != nil {
			t.Fatal(err)
		}
		e := workload.NextEdit(r, root, k)
		if err := s.p.Write(func(tx *peer.Tx) error { return applyEdit(tx, e) }); err != nil {
			t.Fatalf("%s: %v", e.What, err)
		}
		s.check(t, fmt.Sprintf("commit %d (%s)", step+1, e.What))
	}
}

// applyEdit makes a generated edit in tx.
func applyEdit(tx *peer.Tx, e workload.Edit) error {
	switch {
	case e.Child == 0:
		return tx.Append(e.Parent, e.Tree)
	case e.Tree == nil:
		return tx.Remove(e.Parent, e.Child)
	}
	return tx.Replace(e.Parent, e.Child, e.Tree)
}
