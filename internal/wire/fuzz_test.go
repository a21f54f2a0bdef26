package wire

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/view"
	"axml/internal/xmltree"
)

// FuzzServerDispatch hardens the server side of the protocol: every
// line a client sends reaches dispatch verbatim after framing, so an
// arbitrary line must never panic the peer — at worst it earns an
// x:error reply. Each iteration gets a fresh system: updates and
// declarations on QUERYX are part of the surface and must not be able
// to wedge a later request either. The peer carries stub builtins for
// the control services, so CALL reaches builtin code with whatever
// parameter forest the line holds; the retired verbs stay as seeds,
// and EXEC, INSTALL, DEFVIEW and PREPARE must answer unknown command.
func FuzzServerDispatch(f *testing.F) {
	seeds := []string{
		`QUERYX doc("catalog")/item/name`,
		`QUERYX +noopt doc("catalog")/item`,
		`QUERYX +noopt+snapshot doc("catalog")/item`,
		`QUERYX +trace=t1 doc("catalog")/item`,
		`QUERYX for $i in doc("catalog")/item return $i/name`,
		`QUERYX +fwd+trace=abc for $i in doc("catalog")/item return $i`,
		`QUERYX delete doc("catalog")/item[price > 100]`,
		`QUERYX delete node doc("catalog")/item[1]`,
		`QUERYX delete (doc("catalog")/item[1] | doc("catalog")/item[2])`,
		`QUERYX replace doc("catalog")/item/price with <price>5</price>`,
		`QUERYX replace node doc("catalog")/item[1] with <item><name>a&amp;amp;b&#10;c</name></item>`,
		`QUERYX +trace=t3 replace node doc("catalog")/item/price with <price>6</price>`,
		`QUERYX declare view "cheap" at "store" as for $i in doc("catalog")/item where $i/price < 100 return $i`,
		`QUERYX declare document "extra" as <doc><a/></doc>`,
		`EXEC delete doc("catalog")/item[price > 100]`,
		`EXEC +trace=t2 replace doc("catalog")/item/price with <price>5</price>`,
		`PREPARE param $m; for $i in doc("catalog")/item where $i/price < $m return $i`,
		`CALL below <param><price>100</price></param>`,
		`INSTALL extra <doc><a/></doc>`,
		`INSTALL onlyname`,
		`DELETE doc("catalog")/item`,
		`REPLACE doc("catalog")/item/price <price>5</price>`,
		`DEFVIEW cheap@store for $i in doc("catalog")/item where $i/price < 100 return $i`,
		`LIST`,
		`VIEWS`,
		`PLACEMENTS`,
		`STATS`,
		`TRACE t1`,
		`QUIT`,
		`BOGUS nonsense`,
		`QUERYX +trace= doc("catalog")/item`,
		`QUERYX +snapshto doc("catalog")/item`,
		`QUERYX +`,
		`QUERYX+noopt doc("catalog")/item`,
		"QUERYX \x00\xff",
		`queryx lowercase is accepted`,
		`HELLO <x:member id="a" addr="127.0.0.1:1"><doc name="catalog"/></x:member>`,
		`BYE a`,
		`DEMAND`,
		`MIGRATE cheap b 127.0.0.1:1`,
		`REPLICATE cheap b 127.0.0.1:1`,
		`DROPVIEW cheap`,
		`ACCEPTVIEW cheap <x:ship query="doc(&quot;catalog&quot;)" origin="a"><catalog/></x:ship>`,
		`STEP`,
		`CALL x:demand`,
		`CALL x:accept-view <x:ship name="cheap" query="doc(&quot;catalog&quot;)" origin="a"><catalog><item/></catalog></x:ship>`,
		`CALL x:migrate <x:move view="cheap" to="b"`,
		`CALL x:demand <x:move/><x:move/>`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		sys := core.NewSystem(netsim.New())
		p := sys.MustAddPeer("store")
		if err := p.InstallDocument("catalog", xmltree.MustParse(
			`<catalog><item><name>chair</name><price>30</price></item></catalog>`)); err != nil {
			t.Fatal(err)
		}
		(&stubControl{}).register(t, p, controlServices)
		views := view.NewManager(sys)
		defer views.Close()
		srv := &Server{Peer: p, Views: views}
		var reply bytes.Buffer
		w := bufio.NewWriter(&reply)
		srv.dispatch(line, w)
		w.Flush()
		verb, _, _ := strings.Cut(line, " ")
		switch strings.ToUpper(verb) {
		case "EXEC", "INSTALL", "DEFVIEW", "PREPARE":
			if !strings.Contains(reply.String(), "unknown command") {
				t.Fatalf("%q answered %s, want unknown command", line, reply.String())
			}
		}
	})
}

// FuzzClientStream hardens the client side: the reply stream is as
// untrusted as the request line (a compromised or just buggy peer must
// not be able to panic every client that connects to it). The fuzz
// input plays the server's verbatim reply bytes to a real Client over
// a pipe, once each for a query, a STATS read and a CALL; each must
// either read rows or return an error. A reply whose first line is a
// tree other than x:row, x:end or x:error — the retired one-line
// replies among them — fails as an unexpected reply.
func FuzzClientStream(f *testing.F) {
	seeds := []string{
		"<x:row><name>chair</name></x:row>\n<x:end rows=\"1\" vt=\"3.5\"/>\n",
		"<x:end rows=\"0\" vt=\"0\"/>\n",
		"<x:error code=\"bad-query\">no parse</x:error>\n",
		"<x:error code=\"canceled\">ctx</x:error>\n",
		"<x:error code=\"view-moved\">placement changed</x:error>\n",
		"<x:error code=\"peer-down\">gone</x:error>\n",
		"<x:error code=\"no-such-doc\">missing</x:error>\n",
		"<x:error>no code attribute</x:error>\n",
		"<x:ok/>\n",
		"<x:forest><name>chair</name><name>desk</name></x:forest>\n",
		"<x:stats><counter name=\"session.queries\" value=\"3\"/></x:stats>\n",
		"<x:row><x:stats><counter name=\"session.queries\" value=\"3\"/>" +
			"<gauge name=\"wire.rows_streamed\" value=\"6\"/>" +
			"<hist name=\"session.query.first_row_ms\" count=\"2\" sum=\"1.5\"/></x:stats></x:row>\n" +
			"<x:end n=\"1\"/>\n",
		"<x:row><x:stats/></x:row>\n<x:row><x:stats/></x:row>\n<x:end n=\"2\"/>\n",
		"<x:result><name>chair</name></x:result>\n",
		"not xml at all\n",
		"<unclosed\n",
		"<x:row></x:row>\n<x:row></x:row>\n",
		"<x:row/>\n<garbage>\n<x:end rows=\"2\" vt=\"1\"/>\n",
		"\n\n\n",
		"<x:end rows=\"NaN\" vt=\"bogus\"/>\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	calls := []func(context.Context, *Client) error{
		func(ctx context.Context, c *Client) error {
			rows, err := c.Query(ctx, `doc("catalog")/item`)
			if err != nil {
				return err
			}
			_, err = rows.Collect()
			return err
		},
		func(ctx context.Context, c *Client) error { _, err := c.Stats(ctx); return err },
		func(ctx context.Context, c *Client) error { _, err := c.Call(ctx, "names"); return err },
	}
	f.Fuzz(func(t *testing.T, reply string) {
		first, _, _ := strings.Cut(reply, "\n")
		root, perr := xmltree.Parse(strings.TrimSuffix(first, "\r"))
		unexpected := perr == nil && root.Label != "x:row" && root.Label != "x:end" && root.Label != "x:error"
		for _, call := range calls {
			err := playReply(reply, call)
			if unexpected && (err == nil || !strings.Contains(err.Error(), "unexpected reply")) {
				t.Fatalf("a reply opening with <%s> read as %v, want an unexpected reply", root.Label, err)
			}
		}
	})
}

// playReply runs call on a client whose server is a pipe that drains
// whatever the client sends, plays reply and hangs up.
func playReply(reply string, call func(context.Context, *Client) error) error {
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	go func() {
		defer srvConn.Close()
		go io.Copy(io.Discard, srvConn) //nolint:errcheck // drain only
		srvConn.Write([]byte(reply))    //nolint:errcheck // best effort
	}()
	sc := bufio.NewScanner(cliConn)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	c := &Client{conn: cliConn, sc: sc, ioTimeout: 2 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return call(ctx, c)
}
