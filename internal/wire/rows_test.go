package wire

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/service"
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// serveOn runs srv on l for the test's lifetime and dials it.
func serveOn(t *testing.T, srv *Server, l net.Listener) *Client {
	t.Helper()
	go srv.Serve(l) //nolint:errcheck // closed by test cleanup
	t.Cleanup(func() { l.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// newStore is a system of one peer holding the given documents.
func newStore(t *testing.T, docs map[string]*xmltree.Node) (*peer.Peer, *view.Manager) {
	t.Helper()
	sys := core.NewSystem(netsim.New())
	t.Cleanup(sys.Close)
	p := sys.MustAddPeer("store")
	for name, root := range docs {
		if err := p.InstallDocument(name, root); err != nil {
			t.Fatal(err)
		}
	}
	views := view.NewManager(sys)
	t.Cleanup(views.Close)
	return p, views
}

// TestRowTextWithNewline: stored text and attribute values holding CR
// and LF come back whole in rows, in a CALL's forest and through an
// INSTALL, although every reply and request is one line.
func TestRowTextWithNewline(t *testing.T) {
	notes := xmltree.E("notes",
		xmltree.E("n", xmltree.T("line one\nline two")),
		xmltree.E("n", xmltree.A("by", "a\r\nb"), xmltree.T("crlf\r\n")))
	want := []string{xmltree.Serialize(notes.Children[0]), xmltree.Serialize(notes.Children[1])}
	p, views := newStore(t, map[string]*xmltree.Node{"notes": notes})
	body := xquery.MustParse(`doc("notes")/n`)
	if err := p.RegisterService(&service.Service{Name: "notes", Provider: "store", Body: body}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := serveOn(t, &Server{Peer: p, Views: views}, l)
	ctx := context.Background()

	check := func(how string, got []*xmltree.Node, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d trees, want %d", how, len(got), len(want))
		}
		for i, n := range got {
			if s := xmltree.Serialize(n); s != want[i] {
				t.Errorf("%s: tree %d = %q, want %q", how, i, s, want[i])
			}
		}
	}
	rows, err := c.QueryAll(`doc("notes")/n`)
	check("QUERYX", rows, err)
	forest, err := c.Call(ctx, "notes")
	check("CALL", forest, err)
	if err := c.Install(ctx, "copy", xmltree.DeepCopy(notes)); err != nil {
		t.Fatal(err)
	}
	rows, err = c.QueryAll(`doc("copy")/n`)
	check("INSTALL then QUERYX", rows, err)
}

// countingConn records the bytes of every Write the server makes.
type countingConn struct {
	net.Conn
	mu     *sync.Mutex
	writes *[]string
}

func (c countingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	*c.writes = append(*c.writes, string(b))
	c.mu.Unlock()
	return c.Conn.Write(b)
}

type countingListener struct {
	net.Listener
	mu     sync.Mutex
	writes []string
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, mu: &l.mu, writes: &l.writes}, nil
}

// TestStreamWritesPerBuffer pins what a 1,000-row reply costs the
// connection: the first row leaves in a write of its own, the rest a
// buffer at a time, not one write per row.
func TestStreamWritesPerBuffer(t *testing.T) {
	catalog := workload.Catalog(workload.CatalogSpec{Items: 2000, PriceMax: 1000, DescWords: 10, Seed: 1})
	p, views := newStore(t, map[string]*xmltree.Node{"catalog": catalog})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &countingListener{Listener: inner}
	c := serveOn(t, &Server{Peer: p, Views: views}, l)

	rows, err := c.QueryAll(`for $i in doc("catalog")/item where $i/price < 500 return $i`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 900 {
		t.Fatalf("%d rows, want about 1,000", len(rows))
	}
	l.mu.Lock()
	writes := l.writes
	l.mu.Unlock()
	if len(writes) == 0 {
		t.Fatal("no writes")
	}
	if n := strings.Count(writes[0], "<x:row>"); n != 1 {
		t.Errorf("the first write holds %d rows, want 1", n)
	}
	t.Logf("%d rows in %d writes", len(rows), len(writes))
	if len(writes) > 60 {
		t.Errorf("%d rows took %d writes, budget is 60", len(rows), len(writes))
	}
}

// TestStreamBesideWriters: QUERYX streams over loopback and in-process
// session streams run while a writer commits. Every reply is one
// epoch's truth — all items, one generation — and no reader changes
// a stored tree: a root pinned before the readers started serializes,
// and links its items, exactly as it did.
func TestStreamBesideWriters(t *testing.T) {
	// The writer commits until every reader has had replies enough to
	// overlap it, and at least minCommits times.
	const items, minCommits, readers, repliesEach = 100, 40, 2, 10
	ledger := xmltree.E("ledger")
	for i := 0; i < items; i++ {
		ledger.AppendChild(xmltree.E("item", xmltree.A("n", fmt.Sprint(i)), xmltree.E("v", xmltree.T("0"))))
	}
	p, views := newStore(t, map[string]*xmltree.Node{"ledger": ledger})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Peer: p, Views: views}
	serveOn(t, srv, l)
	local, err := session.NewLocal(views.System(), views, p.ID)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })

	pinned := p.Snapshot()
	defer pinned.Release()
	root, err := pinned.Root("ledger")
	if err != nil {
		t.Fatal(err)
	}
	text := xmltree.Serialize(root)
	parents := map[*xmltree.Node]*xmltree.Node{}
	root.Walk(func(n *xmltree.Node) bool { parents[n] = n.Parent; return true })

	// oneEpoch reports what is wrong with a reply, "" when nothing.
	oneEpoch := func(rows []*xmltree.Node) string {
		if len(rows) != items {
			return fmt.Sprintf("%d items, want %d", len(rows), items)
		}
		gen := rows[0].TextContent()
		for i, r := range rows {
			if n, _ := r.Attr("n"); n != fmt.Sprint(i) || r.TextContent() != gen {
				return fmt.Sprintf("item %d is %s in a reply of generation %s", i, xmltree.Serialize(r), gen)
			}
		}
		return ""
	}

	done := make(chan struct{})
	errs := make(chan string, 2*readers)
	var wg sync.WaitGroup
	var replies atomic.Int64
	read := func(query func() ([]*xmltree.Node, error)) {
		defer wg.Done()
		for n := 0; ; n++ {
			if n == repliesEach {
				replies.Add(1)
			}
			select {
			case <-done:
				return
			default:
			}
			rows, err := query()
			if err != nil {
				errs <- err.Error()
				replies.Add(1)
				return
			}
			if msg := oneEpoch(rows); msg != "" {
				errs <- msg
				replies.Add(1)
				return
			}
		}
	}
	const src = `doc("ledger")/item`
	for i := 0; i < readers; i++ {
		c, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		wg.Add(2)
		go read(func() ([]*xmltree.Node, error) { return c.QueryAll(src) })
		go read(func() ([]*xmltree.Node, error) {
			rows, err := local.Query(context.Background(), src)
			if err != nil {
				return nil, err
			}
			return rows.Collect()
		})
	}

	commits := 0
	for g := 1; g <= minCommits || replies.Load() < 2*readers; g++ {
		commits = g
		h := p.Snapshot()
		cur, err := h.Root("ledger")
		h.Release()
		if err != nil {
			t.Fatal(err)
		}
		err = p.Write(func(tx *peer.Tx) error {
			for _, item := range cur.Children {
				if err := tx.Replace(item.ID, item.Children[0].ID, xmltree.E("v", xmltree.T(fmt.Sprint(g)))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}

	if got := xmltree.Serialize(root); got != text {
		t.Errorf("the pinned root changed under the readers:\n%s\nwant\n%s", got, text)
	}
	root.Walk(func(n *xmltree.Node) bool {
		if n.Parent != parents[n] {
			t.Errorf("a reader re-parented stored node %s", xmltree.Serialize(n))
			return false
		}
		return true
	})
	rows, err := local.Query(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	final, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if msg := oneEpoch(final); msg != "" || final[0].TextContent() != fmt.Sprint(commits) {
		t.Errorf("after the writer: %s, generation %s", msg, final[0].TextContent())
	}
	if g := srv.MetricsRegistry().Snapshot().Gauges["wire.streams_aborted"]; g != 0 {
		t.Errorf("%d streams aborted", g)
	}
}
