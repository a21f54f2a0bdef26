package peer

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"axml/internal/service"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

func TestInstallAndLookup(t *testing.T) {
	p := New("p1")
	root := xmltree.MustParse(`<catalog><item><name>chair</name></item></catalog>`)
	if err := p.InstallDocument("catalog", root); err != nil {
		t.Fatalf("install: %v", err)
	}
	if err := p.InstallDocument("catalog", xmltree.E("x")); err == nil {
		t.Error("duplicate install should error")
	}
	if got := docRoot(t, p, "catalog"); got != root {
		t.Fatalf("the installed root is %s", xmltree.Serialize(got))
	}
	// Every node got an ID and is resolvable.
	root.Walk(func(n *xmltree.Node) bool {
		if n.ID == 0 {
			t.Errorf("node <%s> has no ID", n.Label)
			return true
		}
		got, ok := p.NodeByID(n.ID)
		if !ok || got != n {
			t.Errorf("NodeByID(%d) wrong", n.ID)
		}
		return true
	})
	if !p.HasDocument("catalog") || p.HasDocument("nope") {
		t.Error("HasDocument wrong")
	}
	if names := p.DocumentNames(); len(names) != 1 || names[0] != "catalog" {
		t.Errorf("DocumentNames = %v", names)
	}
}

func TestInstallValidation(t *testing.T) {
	p := New("p1")
	if err := p.InstallDocument("", xmltree.E("x")); err == nil {
		t.Error("empty name should error")
	}
	if err := p.InstallDocument("d", nil); err == nil {
		t.Error("nil root should error")
	}
}

func TestRemoveDocument(t *testing.T) {
	p := New("p1")
	root := xmltree.MustParse(`<a><b/></a>`)
	if err := p.InstallDocument("d", root); err != nil {
		t.Fatal(err)
	}
	id := root.Children[0].ID
	if err := p.RemoveDocument("d"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, ok := p.NodeByID(id); ok {
		t.Error("removed document's nodes still indexed")
	}
	if err := p.RemoveDocument("d"); err == nil {
		t.Error("double remove should error")
	}
}

func TestAddChild(t *testing.T) {
	p := New("p1")
	root := xmltree.MustParse(`<log><entry>one</entry></log>`)
	if err := p.InstallDocument("log", root); err != nil {
		t.Fatal(err)
	}
	ch, cancel := p.Watch("log")
	defer cancel()

	newEntry := xmltree.E("entry", "two")
	if err := p.AddChild(root.ID, newEntry); err != nil {
		t.Fatalf("AddChild: %v", err)
	}
	// Writes are copy-on-write: the pre-mutation root is a frozen
	// epoch, the document's newest root holds the write.
	if len(root.Children) != 1 {
		t.Errorf("pinned epoch changed: children = %d, want 1", len(root.Children))
	}
	if got := len(docRoot(t, p, "log").Children); got != 2 {
		t.Errorf("children = %d", got)
	}
	if newEntry.ID == 0 {
		t.Error("added tree not adopted (no ID)")
	}
	if _, ok := p.NodeByID(newEntry.ID); !ok {
		t.Error("added tree not indexed")
	}
	select {
	case <-ch:
	default:
		t.Error("watcher not notified")
	}

	// Errors.
	if err := p.AddChild(99999, xmltree.E("x")); err == nil {
		t.Error("AddChild to unknown node should error")
	}
	textChild := xmltree.NewText("t")
	if err := p.AddChild(root.ID, textChild); err != nil {
		t.Errorf("AddChild(text) should work: %v", err)
	}
	if err := p.AddChild(textChild.ID, xmltree.E("x")); err == nil {
		t.Error("AddChild to text node should error")
	}
}

func TestWatchCoalesceAndCancel(t *testing.T) {
	p := New("p1")
	root := xmltree.E("d")
	if err := p.InstallDocument("d", root); err != nil {
		t.Fatal(err)
	}
	ch, cancel := p.Watch("d")
	// Multiple changes coalesce into one pending signal.
	_ = p.AddChild(root.ID, xmltree.E("a"))
	_ = p.AddChild(root.ID, xmltree.E("b"))
	count := 0
	for {
		select {
		case <-ch:
			count++
			continue
		default:
		}
		break
	}
	if count != 1 {
		t.Errorf("signals = %d, want 1 (coalesced)", count)
	}
	cancel()
	_ = p.AddChild(root.ID, xmltree.E("c"))
	select {
	case <-ch:
		t.Error("cancelled watcher received signal")
	default:
	}
}

func TestRegisterService(t *testing.T) {
	p := New("p1")
	q := xquery.MustParse(`doc("catalog")/item`)
	svc := &service.Service{Name: "getItems", Provider: "p1", Body: q}
	if err := p.RegisterService(svc); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := p.RegisterService(svc); err == nil {
		t.Error("duplicate service should error")
	}
	if err := p.RegisterService(&service.Service{Name: "bad", Provider: "other", Body: q}); err == nil {
		t.Error("foreign provider should error")
	}
	if err := p.RegisterService(&service.Service{Name: "", Provider: "p1", Body: q}); err == nil {
		t.Error("empty name should error")
	}
	if err := p.RegisterService(&service.Service{Name: "both", Provider: "p1"}); err == nil {
		t.Error("neither body nor builtin should error")
	}
	got, ok := p.Service("getItems")
	if !ok || got != svc {
		t.Error("Service lookup wrong")
	}
	if names := p.ServiceNames(); len(names) != 1 {
		t.Errorf("ServiceNames = %v", names)
	}
}

func TestRunQuery(t *testing.T) {
	p := New("p1")
	if err := p.InstallDocument("catalog", xmltree.MustParse(
		`<catalog><item><price>10</price></item><item><price>90</price></item></catalog>`)); err != nil {
		t.Fatal(err)
	}
	q := xquery.MustParse(`for $i in doc("catalog")/item where $i/price > 50 return $i`)
	out, err := p.RunQuery(q)
	if err != nil {
		t.Fatalf("RunQuery: %v", err)
	}
	if len(out) != 1 {
		t.Errorf("results = %d", len(out))
	}
	// Missing doc surfaces as error.
	q2 := xquery.MustParse(`doc("ghost")/x`)
	if _, err := p.RunQuery(q2); err == nil {
		t.Error("missing doc should error")
	}
}

func TestNodeRefString(t *testing.T) {
	r := NodeRef{Peer: "p2", Node: 17}
	if r.String() != "n17@p2" {
		t.Errorf("String = %q", r.String())
	}
	back, err := ParseNodeRef("n17@p2")
	if err != nil || back != r {
		t.Errorf("ParseNodeRef = %+v, %v", back, err)
	}
	for _, bad := range []string{"", "x17@p2", "n@p", "nXX@p2", "n17"} {
		if _, err := ParseNodeRef(bad); err == nil {
			t.Errorf("ParseNodeRef(%q) should error", bad)
		}
	}
}

func TestFreshAnchor(t *testing.T) {
	p := New("p1")
	a := p.FreshAnchor("results")
	if a.ID == 0 {
		t.Error("anchor has no ID")
	}
	got, ok := p.NodeByID(a.ID)
	if !ok || got != a {
		t.Error("anchor not indexed")
	}
	// Anchors accept children through the peer API.
	if err := p.AddChild(a.ID, xmltree.E("r")); err != nil {
		t.Errorf("AddChild to anchor: %v", err)
	}
}

func TestResolver(t *testing.T) {
	p := New("p1")
	if err := p.InstallDocument("d", xmltree.E("d")); err != nil {
		t.Fatal(err)
	}
	res := p.Resolver()
	if _, err := res("d"); err != nil {
		t.Errorf("resolver: %v", err)
	}
	if _, err := res("nope"); err == nil || !errors.Is(err, ErrNoSuchDoc) {
		t.Errorf("resolver miss: %v", err)
	}
}

func TestRemoveChildByID(t *testing.T) {
	p := New("p1")
	root := xmltree.MustParse(`<log><entry>one</entry><entry>two</entry></log>`)
	if err := p.InstallDocument("log", root); err != nil {
		t.Fatal(err)
	}
	ch, cancel := p.Watch("log")
	defer cancel()

	start := p.Epoch()
	victim := root.Children[0]
	grandchild := victim.Children[0]
	if err := p.Write(func(tx *Tx) error { return tx.Remove(root.ID, victim.ID) }); err != nil {
		t.Fatalf("Tx.Remove: %v", err)
	}
	now := docRoot(t, p, "log")
	if len(now.Children) != 1 || now.Children[0].TextContent() != "two" {
		t.Errorf("wrong child removed: %s", xmltree.Serialize(now))
	}
	if _, ok := p.NodeByID(victim.ID); ok {
		t.Error("removed subtree root still indexed")
	}
	if _, ok := p.NodeByID(grandchild.ID); ok {
		t.Error("removed subtree descendant still indexed")
	}
	if c := onlyChange(t, p, ch, "log", start); c.Removed != victim.ID || c.Added != 0 {
		t.Errorf("commit = %+v, want the removal of n%d", c, victim.ID)
	}

	// Errors: unknown node, wrong parent, document root.
	if err := p.Write(func(tx *Tx) error { return tx.Remove(0, 99999) }); err == nil {
		t.Error("removing unknown node should error")
	}
	if err := p.Write(func(tx *Tx) error { return tx.Remove(victim.ID, now.Children[0].ID) }); err == nil {
		t.Error("wrong-parent check should fire")
	}
	if err := p.Write(func(tx *Tx) error { return tx.Remove(0, root.ID) }); err == nil {
		t.Error("removing a document root should error")
	}
}

func TestReplaceChildByID(t *testing.T) {
	p := New("p1")
	root := xmltree.MustParse(`<log><entry>one</entry><entry>two</entry></log>`)
	if err := p.InstallDocument("log", root); err != nil {
		t.Fatal(err)
	}
	ch, cancel := p.Watch("log")
	defer cancel()

	start := p.Epoch()
	old := root.Children[0]
	repl := xmltree.E("entry", "rewritten")
	if err := p.ReplaceChildByID(root.ID, old.ID, repl); err != nil {
		t.Fatalf("ReplaceChildByID: %v", err)
	}
	if docRoot(t, p, "log").Children[0] != repl {
		t.Error("replacement not in position 0")
	}
	if repl.ID == 0 {
		t.Error("replacement not adopted")
	}
	if _, ok := p.NodeByID(old.ID); ok {
		t.Error("replaced subtree still indexed")
	}
	if got, ok := p.NodeByID(repl.ID); !ok || got != repl {
		t.Error("replacement not indexed")
	}
	if c := onlyChange(t, p, ch, "log", start); c.Removed != old.ID || c.Added != repl.ID {
		t.Errorf("commit = %+v, want n%d replaced by n%d", c, old.ID, repl.ID)
	}
}

func TestTypedInsertEvent(t *testing.T) {
	p := New("p1")
	root := xmltree.E("d")
	if err := p.InstallDocument("d", root); err != nil {
		t.Fatal(err)
	}
	ch, cancel := p.Watch("d")
	defer cancel()
	start := p.Epoch()
	tree := xmltree.E("a")
	if err := p.AddChild(root.ID, tree); err != nil {
		t.Fatal(err)
	}
	if c := onlyChange(t, p, ch, "d", start); c.Added != tree.ID || c.Removed != 0 {
		t.Errorf("commit = %+v, want the insert of n%d", c, tree.ID)
	}
}

// onlyChange checks that the watcher was woken for doc at the store's
// current epoch, and returns the one commit doc's feed holds after
// epoch after.
func onlyChange(t *testing.T, p *Peer, ch <-chan Change, doc string, after uint64) xmltree.Commit {
	t.Helper()
	select {
	case ev := <-ch:
		if ev.Doc != doc || ev.Epoch != p.Epoch() {
			t.Errorf("woken with %+v, want %s at epoch %d", ev, doc, p.Epoch())
		}
	default:
		t.Error("watcher not woken")
	}
	h := p.Snapshot()
	defer h.Release()
	got, ok := h.Changes(doc, after)
	if !ok || len(got) != 1 {
		t.Fatalf("Changes = %d commits, ok=%v; want 1", len(got), ok)
	}
	return got[0]
}

func TestSelectIDs(t *testing.T) {
	p := New("p1")
	root := xmltree.MustParse(
		`<catalog><item><price>10</price></item><item><price>900</price></item></catalog>`)
	if err := p.InstallDocument("catalog", root); err != nil {
		t.Fatal(err)
	}
	ids, err := p.SelectIDs(xquery.MustParse(`doc("catalog")/item[price > 100]`))
	if err != nil {
		t.Fatalf("SelectIDs: %v", err)
	}
	if len(ids) != 1 || ids[0] != root.Children[1].ID {
		t.Errorf("ids = %v, want the expensive item n%d", ids, root.Children[1].ID)
	}
	if _, err := p.SelectIDs(xquery.MustParse(
		`for $i in doc("catalog")/item return $i`)); err == nil {
		t.Error("non-path query should be rejected")
	}
}

// TestHandleNodeCount: the count a handle reports is its own epoch's
// Root(name).NodeCount(), before and after later commits of every kind.
func TestHandleNodeCount(t *testing.T) {
	p := New("p1")
	if err := p.InstallDocument("catalog",
		xmltree.MustParse(`<catalog><item><name>chair</name></item><item/></catalog>`)); err != nil {
		t.Fatal(err)
	}
	check := func(h *Handle) int {
		t.Helper()
		root, err := h.Root("catalog")
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.NodeCount("catalog")
		if err != nil || got != root.NodeCount() {
			t.Fatalf("NodeCount = %d, %v; want %d", got, err, root.NodeCount())
		}
		return got
	}
	old := p.Snapshot()
	defer old.Release()
	before := check(old)

	root, _ := old.Root("catalog")
	if err := p.AddChild(root.ID, xmltree.MustParse(`<item><name>desk</name><price>9</price></item>`)); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(func(tx *Tx) error { return tx.Remove(root.ID, root.Children[1].ID) }); err != nil {
		t.Fatal(err)
	}
	if err := p.ReplaceChildByID(root.ID, root.Children[0].ID, xmltree.E("item")); err != nil {
		t.Fatal(err)
	}
	cur := p.Snapshot()
	defer cur.Release()
	if after := check(cur); after == before {
		t.Errorf("count did not follow the commits: %d before and after", after)
	}
	if again := check(old); again != before {
		t.Errorf("an old handle's count moved from %d to %d", before, again)
	}
	if _, err := cur.NodeCount("missing"); !errors.Is(err, ErrNoSuchDoc) {
		t.Errorf("NodeCount of a missing document: %v", err)
	}
}

// TestDocumentBytesPerPublishedRoot: the size the catalog reports is the
// newest root's ByteSize after every kind of commit, taken once per
// published root and remembered beside it, so asking again costs a map
// read and no walk.
func TestDocumentBytesPerPublishedRoot(t *testing.T) {
	p := New("p1")
	if _, ok := p.DocumentBytes("catalog"); ok {
		t.Error("DocumentBytes of a missing document reports ok")
	}
	if err := p.InstallDocument("catalog",
		xmltree.MustParse(`<catalog><item><name>chair</name></item><item/></catalog>`)); err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		want := docRoot(t, p, "catalog").ByteSize()
		if got, ok := p.DocumentBytes("catalog"); !ok || got != want {
			t.Fatalf("DocumentBytes = %d, %v; want %d", got, ok, want)
		}
		p.mu.RLock()
		pub := p.docs["catalog"].pub
		p.mu.RUnlock()
		if pub.bytes != want {
			t.Errorf("the published root remembers %d bytes, want %d", pub.bytes, want)
		}
	}
	check()
	root := docRoot(t, p, "catalog")
	if err := p.AddChild(root.ID, xmltree.MustParse(`<item><name>desk</name><price>9</price></item>`)); err != nil {
		t.Fatal(err)
	}
	check()
	if err := p.Write(func(tx *Tx) error { return tx.Remove(root.ID, root.Children[1].ID) }); err != nil {
		t.Fatal(err)
	}
	check()
	if err := p.ReplaceChildByID(root.ID, root.Children[0].ID, xmltree.E("item")); err != nil {
		t.Fatal(err)
	}
	check()
	if err := p.Write(func(tx *Tx) error {
		if _, err := tx.Drop("catalog"); err != nil {
			return err
		}
		return tx.Install("catalog", xmltree.E("catalog"))
	}); err != nil {
		t.Fatal(err)
	}
	check()
	if n := testing.AllocsPerRun(100, func() { p.DocumentBytes("catalog") }); n != 0 {
		t.Errorf("DocumentBytes allocates %v per call", n)
	}
}

// docRoot reads the named document's newest root through a snapshot.
func docRoot(t testing.TB, p *Peer, name string) *xmltree.Node {
	t.Helper()
	h := p.Snapshot()
	defer h.Release()
	root, err := h.Root(name)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// feedPeer is a peer with <catalog><item><price/></item>×2</catalog>
// installed, for the change-feed tests.
func feedPeer(t *testing.T) (*Peer, *xmltree.Node) {
	t.Helper()
	p := New("p1")
	root := xmltree.MustParse(`<catalog><item><price>1</price></item><item><price>2</price></item></catalog>`)
	if err := p.InstallDocument("catalog", root); err != nil {
		t.Fatal(err)
	}
	return p, root
}

// TestChangesSaysWhatEachCommitTouched pins the record of every
// mutation kind: the spine root first down to the node whose child list
// changed with the position of each step, and the removed/added
// subtree roots.
func TestChangesSaysWhatEachCommitTouched(t *testing.T) {
	p, root := feedPeer(t)
	start := p.Epoch()
	item, other := root.Children[0], root.Children[1]
	oldPrice := item.Children[0]

	added := xmltree.MustParse(`<item><price>3</price></item>`)
	newPrice := xmltree.E("price", xmltree.T("9"))
	steps := []struct {
		name string
		do   func() error
		want xmltree.Commit
	}{
		{"AddChild", func() error { return p.AddChild(root.ID, added) },
			xmltree.Commit{Spine: []xmltree.NodeID{root.ID}, Added: 0}},
		{"nested ReplaceChildByID", func() error { return p.ReplaceChildByID(0, oldPrice.ID, newPrice) },
			xmltree.Commit{Spine: []xmltree.NodeID{root.ID, item.ID}, Pos: []int{0}, Removed: oldPrice.ID}},
		{"Tx.Remove", func() error { return p.Write(func(tx *Tx) error { return tx.Remove(root.ID, other.ID) }) },
			xmltree.Commit{Spine: []xmltree.NodeID{root.ID}, Removed: other.ID}},
		{"ReplaceChildren", func() error { return p.Write(func(tx *Tx) error { return tx.ReplaceChildren(item.ID, nil) }) },
			xmltree.Commit{Spine: []xmltree.NodeID{root.ID, item.ID}, Pos: []int{0}}},
	}
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
	// Fresh subtrees get their identifiers on the way in.
	steps[0].want.Added = added.ID
	steps[1].want.Added = newPrice.ID

	h := p.Snapshot()
	defer h.Release()
	got, ok := h.Changes("catalog", start)
	if !ok || len(got) != len(steps) {
		t.Fatalf("Changes = %d commits, ok=%v; want %d", len(got), ok, len(steps))
	}
	for i, s := range steps {
		s.want.Epoch = start + uint64(i) + 1
		if g := got[i]; g.Epoch != s.want.Epoch || g.Removed != s.want.Removed || g.Added != s.want.Added ||
			!slices.Equal(g.Spine, s.want.Spine) || !slices.Equal(g.Pos, s.want.Pos) {
			t.Errorf("%s: commit = %+v, want %+v", s.name, g, s.want)
		}
	}
}

// TestChangesIsBoundedByBothEpochs: a handle sees the feed only up to
// the epoch it pins, and only after the epoch the caller names.
func TestChangesIsBoundedByBothEpochs(t *testing.T) {
	p, root := feedPeer(t)
	add := func() {
		t.Helper()
		if err := p.AddChild(root.ID, xmltree.E("item")); err != nil {
			t.Fatal(err)
		}
	}
	start := p.Epoch()
	add()
	add()
	old := p.Snapshot()
	defer old.Release()
	add()
	cur := p.Snapshot()
	defer cur.Release()

	for _, c := range []struct {
		h     *Handle
		after uint64
		want  int
	}{
		{old, start, 2}, {cur, start, 3}, {cur, start + 1, 2}, {cur, old.Epoch(), 1},
		{old, old.Epoch(), 0}, {cur, cur.Epoch(), 0},
		{old, cur.Epoch(), 0}, // a consumer ahead of the handle has nothing to catch up on
	} {
		got, ok := c.h.Changes("catalog", c.after)
		if !ok || len(got) != c.want {
			t.Errorf("Changes(after=%d) at epoch %d = %d commits, ok=%v; want %d",
				c.after, c.h.Epoch(), len(got), ok, c.want)
		}
		for _, commit := range got {
			if commit.Epoch <= c.after || commit.Epoch > c.h.Epoch() {
				t.Errorf("commit of epoch %d outside (%d, %d]", commit.Epoch, c.after, c.h.Epoch())
			}
		}
	}
	// Commits to another document advance the store's epoch, not this feed.
	if err := p.InstallDocument("other", xmltree.E("x")); err != nil {
		t.Fatal(err)
	}
	later := p.Snapshot()
	defer later.Release()
	if got, ok := later.Changes("catalog", cur.Epoch()); !ok || len(got) != 0 {
		t.Errorf("another document's install showed up as %d commits, ok=%v", len(got), ok)
	}
	if _, ok := later.Changes("missing", 0); ok {
		t.Error("Changes of a document the handle does not hold must not be ok")
	}
}

// TestChangesTruncation: the feed is a ring; a reader further behind
// than it reaches is told so rather than handed a partial history.
func TestChangesTruncation(t *testing.T) {
	p, root := feedPeer(t)
	start := p.Epoch()
	price := root.Children[0].Children[0].ID
	flip := func() {
		t.Helper()
		next := xmltree.E("price", xmltree.T("7"))
		if err := p.ReplaceChildByID(0, price, next); err != nil {
			t.Fatal(err)
		}
		price = next.ID
	}
	for i := 0; i < feedLen; i++ {
		flip()
	}
	h := p.Snapshot()
	if got, ok := h.Changes("catalog", start); !ok || len(got) != feedLen {
		t.Errorf("a full ring = %d commits, ok=%v; want all %d", len(got), ok, feedLen)
	}
	h.Release()

	flip() // evicts the first commit
	h = p.Snapshot()
	defer h.Release()
	if _, ok := h.Changes("catalog", start); ok {
		t.Error("Changes reaching behind the ring must not be ok")
	}
	got, ok := h.Changes("catalog", start+1)
	if !ok || len(got) != feedLen || got[0].Epoch != start+2 || got[feedLen-1].Epoch != h.Epoch() {
		t.Errorf("Changes from the ring's floor = %d commits, ok=%v", len(got), ok)
	}
}

// TestChangesAcrossReinstall: a document removed and installed again
// under the same name is a different document; no feed connects them.
func TestChangesAcrossReinstall(t *testing.T) {
	p, _ := feedPeer(t)
	start := p.Epoch()
	before := p.Snapshot()
	defer before.Release()
	if err := p.RemoveDocument("catalog"); err != nil {
		t.Fatal(err)
	}
	gone := p.Snapshot()
	defer gone.Release()
	if err := p.InstallDocument("catalog", xmltree.MustParse(`<catalog><item/></catalog>`)); err != nil {
		t.Fatal(err)
	}
	h := p.Snapshot()
	defer h.Release()
	if _, ok := h.Changes("catalog", start); ok {
		t.Error("Changes across a reinstall must not be ok")
	}
	if got, ok := h.Changes("catalog", h.Epoch()); !ok || len(got) != 0 {
		t.Errorf("Changes since the reinstall = %d commits, ok=%v", len(got), ok)
	}
	if _, ok := gone.Changes("catalog", start); ok {
		t.Error("a handle that does not hold the document must not answer for it")
	}
	// The handle from before still pins the old tree, unchanged since start.
	if got, ok := before.Changes("catalog", start); !ok || len(got) != 0 {
		t.Errorf("old handle: %d commits, ok=%v; want none", len(got), ok)
	}
}

// TestCommitHoldsIdentifiersOnly: a feed entry must never retain a
// node — it outlives every epoch it describes, and a pointer would pin
// their trees. The type is the guarantee.
func TestCommitHoldsIdentifiersOnly(t *testing.T) {
	var onlyIDs func(reflect.Type) bool
	onlyIDs = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Uint64, reflect.Int:
			return true
		case reflect.Slice:
			return onlyIDs(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !onlyIDs(ty.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	if !onlyIDs(reflect.TypeOf(xmltree.Commit{})) {
		t.Error("xmltree.Commit holds something other than epochs, node identifiers and positions")
	}
}
