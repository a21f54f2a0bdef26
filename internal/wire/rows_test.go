package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/obs"
	"axml/internal/peer"
	"axml/internal/service"
	"axml/internal/session"
	"axml/internal/view"
	"axml/internal/workload"
	"axml/internal/xmltree"
	"axml/internal/xquery"
	"axml/internal/xtype"
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

	// A statement holding a line break means over the wire what it
	// means to a local session over the same data: an update's payload,
	// a query's string literal and a view query's literal.
	lp, lviews := newStore(t, map[string]*xmltree.Node{"notes": xmltree.DeepCopy(notes)})
	local, err := session.NewLocal(lviews.System(), lviews, lp.ID)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(sess session.Session, exec, query string) string {
		t.Helper()
		if exec != "" {
			if _, err := sess.Exec(ctx, exec); err != nil {
				t.Fatalf("%q: %v", exec, err)
			}
		}
		rows, err := sess.Query(ctx, query)
		if err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		forest, err := rows.Collect()
		if err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		var b strings.Builder
		for _, n := range forest {
			b.WriteString(xmltree.Serialize(n))
		}
		return b.String()
	}
	for _, r := range []struct{ exec, query string }{
		{"replace doc(\"notes\")/n[1] with <n>arm\nchair</n>", `doc("notes")/n[1]`},
		{"", "doc(\"notes\")/n[. = \"arm\nchair\"]"},
		{"declare view \"nl\" as for $n in doc(\"notes\")/n where $n = \"arm\nchair\" return $n", `doc("view:nl")/n`},
	} {
		const want = "<n>arm\nchair</n>"
		if got, loc := answer(c, r.exec, r.query), answer(local, r.exec, r.query); got != want || loc != want {
			t.Errorf("%q then %q: wire %q, local %q; want %q", r.exec, r.query, got, loc, want)
		}
	}

	// XML has no reference for a line break in a comment or processing
	// instruction, so a row holding one has no line form: over QUERYX
	// and CALL it ends the stream with a typed error instead of a broken
	// line, also after rows it has sent, and the next request on the
	// client gets its rows.
	odd := xmltree.E("odd", xmltree.E("n", xmltree.T("fine")),
		xmltree.E("n", xmltree.NewComment("one\ntwo"), xmltree.E("x", xmltree.T("1"))),
		xmltree.E("n", &xmltree.Node{Kind: xmltree.ProcInstNode, Label: "pi", Text: "a\r\nb"}))
	if err := p.InstallDocument("odd", odd); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterService(&service.Service{Name: "odd", Provider: "store", Body: xquery.MustParse(`doc("odd")/n`)}); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{`doc("odd")/n[2]`, `doc("odd")/n[3]`, `doc("odd")/n`} {
		if rows, err := c.QueryAll(src); !errors.Is(err, xmltree.ErrLineBreak) {
			t.Errorf("QUERYX %s: %d rows, %v; want ErrLineBreak", src, len(rows), err)
		}
		if rows, err := c.QueryAll(`doc("notes")/n`); len(rows) != 2 || err != nil {
			t.Errorf("QUERYX after a refused row: %d rows, %v; want 2", len(rows), err)
		}
	}
	if forest, err := c.Call(ctx, "odd"); !errors.Is(err, xmltree.ErrLineBreak) {
		t.Errorf("CALL odd: %d trees, %v; want ErrLineBreak", len(forest), err)
	}
	if forest, err := c.Call(ctx, "notes"); len(forest) != 2 || err != nil {
		t.Errorf("CALL after a refused row: %d trees, %v; want 2", len(forest), err)
	}
}

// TestCallChecksSignature: CALL refuses arguments a typed service's
// signature does not admit, as a call through core does, and runs the
// service on those it does.
func TestCallChecksSignature(t *testing.T) {
	p, views := newStore(t, nil)
	note := &xtype.TypeRef{Schema: xtype.MustParseSchema("root note\nnote := MIXED")}
	if err := p.RegisterService(&service.Service{Name: "echo", Provider: "store",
		Sig:  &xtype.Signature{In: []*xtype.TypeRef{note}, Out: xtype.AnyType},
		Body: xquery.MustParse(`param $n; $n`)}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := serveOn(t, &Server{Peer: p, Views: views}, l)
	ctx := context.Background()
	out, err := c.Call(ctx, "echo", xmltree.E("wrong"))
	if err == nil || !strings.Contains(err.Error(), "argument 1 does not conform to note") {
		t.Errorf("CALL with <wrong/>: %d trees, err %v; want a conformance error", len(out), err)
	}
	out, err = c.Call(ctx, "echo", xmltree.E("note", xmltree.T("hi")))
	if err != nil || len(out) != 1 || xmltree.Serialize(out[0]) != "<note>hi</note>" {
		t.Errorf("CALL with <note>: %d trees, err %v", len(out), err)
	}
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

// deadlineConn counts the deadlines a client sets on its connection.
type deadlineConn struct {
	net.Conn
	sets atomic.Int64
}

func (c *deadlineConn) SetDeadline(t time.Time) error {
	c.sets.Add(1)
	return c.Conn.SetDeadline(t)
}

// TestStreamDeadlineRearms pins how often a 1,000-row stream sets its
// connection's deadline. Under a context deadline alone the deadline
// never changes, so it is set once for the stream and cleared once at
// its end; with WithIOTimeout (earlier than the context's deadline)
// each row gets a fresh allowance.
func TestStreamDeadlineRearms(t *testing.T) {
	catalog := workload.Catalog(workload.CatalogSpec{Items: 2000, PriceMax: 1000, DescWords: 10, Seed: 1})
	p, views := newStore(t, map[string]*xmltree.Node{"catalog": catalog})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	plain := serveOn(t, &Server{Peer: p, Views: views}, l)
	timed, err := Dial(l.Addr().String(), WithIOTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { timed.Close() })

	for _, c := range []struct {
		name   string
		client *Client
	}{{"context deadline only", plain}, {"WithIOTimeout", timed}} {
		conn := &deadlineConn{Conn: c.client.conn}
		c.client.conn = conn
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		rows, err := c.client.Query(ctx, `for $i in doc("catalog")/item where $i/price < 500 return $i`)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		cancel()
		if n < 900 {
			t.Fatalf("%s: %d rows, want about 1,000", c.name, n)
		}
		sets := conn.sets.Load()
		if c.client == plain && sets != 2 {
			t.Errorf("%s: %d rows set the deadline %d times, want 2 (arm, clear)", c.name, n, sets)
		}
		if c.client == timed && sets < int64(n) {
			t.Errorf("%s: %d rows set the deadline %d times, want one per row", c.name, n, sets)
		}
	}
}

// TestStreamBesideWriters: QUERYX streams over loopback and in-process
// session streams run while a writer commits. Every reply is one
// epoch's truth — all items, one generation — and no reader changes
// a stored tree: a root pinned before the readers started serializes
// exactly as it did.
func TestStreamBesideWriters(t *testing.T) { streamsBesideWriter(t, false, `doc("ledger")/item`) }

// TestDelegatedStreamBesideWriters is TestStreamBesideWriters with the
// ledger at a second peer, data, where the writer commits: the served
// peer delegates each query there, data writes one epoch's rows into
// its reply, and the rows reach the client as the bytes they came in.
func TestDelegatedStreamBesideWriters(t *testing.T) {
	streamsBesideWriter(t, true,
		`doc("ledger")/item`,
		`for $i in doc("ledger")/item where $i/v >= 0 return $i`)
}

// TestUpwardStreamsBesideWriters is TestStreamBesideWriters for queries
// that step up, sideways or to the root. Such a step finds a node's
// parent in an index the reader builds from the one pinned tree its
// stream reads, so every reply is still one epoch's items; building it
// only reads that tree, and a reader never writes a published node.
func TestUpwardStreamsBesideWriters(t *testing.T) {
	streamsBesideWriter(t, false,
		`doc("ledger")/item[1]/../item`,
		`for $v in doc("ledger")/item/v return $v/..`,
		`doc("ledger")/item/v/ancestor::ledger/item`,
		`doc("ledger")/item[2]/preceding-sibling::item/following-sibling::item/../item`,
		`doc("ledger")/item[count(/ledger/item/v) = 100]`)
}

// streamsBesideWriter runs the srcs, each of which returns the ledger's
// items, beside a writer; see TestStreamBesideWriters. With remote set
// the ledger and the writer are at data, and every query must delegate
// its evaluation there.
func streamsBesideWriter(t *testing.T, remote bool, srcs ...string) {
	// The writer commits until every reader has had replies enough to
	// overlap it, and at least minCommits times.
	const items, minCommits, readers, repliesEach = 100, 40, 2, 10
	ledger := xmltree.E("ledger")
	for i := 0; i < items; i++ {
		ledger.AppendChild(xmltree.E("item", xmltree.A("n", fmt.Sprint(i)), xmltree.E("v", xmltree.T("0"))))
	}
	store, views := newStore(t, nil)
	p := store // the peer holding the ledger, where the writer commits
	if remote {
		p = views.System().MustAddPeer("data")
	}
	if err := p.InstallDocument("ledger", ledger); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Peer: store, Views: views}
	serveOn(t, srv, l)
	local, err := session.NewLocal(views.System(), views, store.ID)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	if remote {
		for _, src := range srcs {
			if rows := delegatedRows(t, local, src); rows != items {
				t.Fatalf("%s: data evaluated %d rows, want all %d", src, rows, items)
			}
		}
	}

	pinned := p.Snapshot()
	defer pinned.Release()
	root, err := pinned.Root("ledger")
	if err != nil {
		t.Fatal(err)
	}
	text := xmltree.Serialize(root)

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
	read := func(query func(src string) ([]*xmltree.Node, error)) {
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
			rows, err := query(srcs[n%len(srcs)])
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
	for i := 0; i < readers; i++ {
		c, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		wg.Add(2)
		go read(c.QueryAll)
		go read(func(src string) ([]*xmltree.Node, error) {
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
	for _, src := range srcs {
		rows, err := local.Query(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		final, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if msg := oneEpoch(final); msg != "" || final[0].TextContent() != fmt.Sprint(commits) {
			t.Errorf("%s after the writer: %s, generation %s", src, msg, final[0].TextContent())
		}
	}
	if g := srv.MetricsRegistry().Snapshot().Gauges["wire.streams_aborted"]; g != 0 {
		t.Errorf("%d streams aborted", g)
	}
}

// delegatedRows runs src traced through sess and returns the rows of
// the evaluation a further peer did for it: 0 when the plan delegated
// no query.
func delegatedRows(t *testing.T, sess *session.Local, src string) int64 {
	t.Helper()
	tr := obs.NewTrace("delegated")
	rows, err := sess.Query(obs.WithTrace(context.Background(), tr), src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Collect(); err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, sp := range tr.Spans() {
		if sp.Phase == "eval" && sp.To != string(sess.At()) {
			n += sp.Rows
		}
	}
	return n
}

// TestClientRowShapes: every row decodes to its first node.
func TestClientRowShapes(t *testing.T) {
	lines := []struct{ line, want string }{
		{`<x:row><item id="1"><name>chair</name></item></x:row>`, `<item id="1"><name>chair</name></item>`},
		{`<x:row>plain &amp; text</x:row>`, `plain &amp; text`},
		{`<x:row><!--c--><b/></x:row>`, `<!--c-->`},
		{`<x:row><a/><b/></x:row>`, `<a/>`},
		{`<x:row><a/> </x:row>`, `<a/>`},
		{`<x:row> <a/></x:row>`, ` `},
	}
	var reply strings.Builder
	for _, l := range lines {
		reply.WriteString(l.line + "\n")
	}
	reply.WriteString(`<x:end n="6"/>` + "\n")

	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	go func() {
		defer srvConn.Close()
		go io.Copy(io.Discard, srvConn)       //nolint:errcheck // drain only
		srvConn.Write([]byte(reply.String())) //nolint:errcheck // the client reports a short reply
	}()
	sc := bufio.NewScanner(cliConn)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	c := &Client{conn: cliConn, sc: sc}
	rows, err := c.Query(context.Background(), `doc("catalog")/item`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lines) {
		t.Fatalf("%d rows, want %d", len(got), len(lines))
	}
	for i, n := range got {
		if s := xmltree.Serialize(n); s != lines[i].want {
			t.Errorf("%s: row %q, want %q", lines[i].line, s, lines[i].want)
		}
	}
}
