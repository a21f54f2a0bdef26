package wire

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/view"
	"axml/internal/xmltree"
)

// startBigStreamServer serves a view-enabled peer whose catalog is
// large enough (items × fat rows) that a full QUERYX stream vastly
// exceeds any socket buffering.
func startBigStreamServer(t *testing.T, items int) (*Client, *Server) {
	t.Helper()
	sys := core.NewSystem(netsim.New())
	p := sys.MustAddPeer("store")
	cat := xmltree.E("catalog")
	pad := strings.Repeat("x", 2000)
	for i := 0; i < items; i++ {
		cat.AppendChild(xmltree.MustParse(fmt.Sprintf(
			`<item><name>n-%05d</name><price>%d</price><desc>%s</desc></item>`,
			i, i%100, pad)))
	}
	if err := p.InstallDocument("catalog", cat); err != nil {
		t.Fatal(err)
	}
	views := view.NewManager(sys)
	t.Cleanup(views.Close)
	t.Cleanup(sys.Close)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Peer: p, Views: views}
	go srv.Serve(l) //nolint:errcheck // closed by test cleanup
	t.Cleanup(func() { l.Close() })

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, srv
}

// TestServerStreamsBeforeEvaluationFinishes: the first row arrives
// while most of the result is still unevaluated — observable because
// the server's rows-streamed counter is far below the result size when
// the client has its first row in hand.
func TestServerStreamsBeforeEvaluationFinishes(t *testing.T) {
	const items = 3000
	c, srv := startBigStreamServer(t, items)
	rows, err := c.Query(context.Background(),
		`for $i in doc("catalog")/item return <r>{$i/name}{$i/desc}</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	// The server can only be a socket buffer ahead of us.
	if streamed := srv.MetricsRegistry().Snapshot().Gauges["wire.rows_streamed"]; streamed >= items {
		t.Errorf("server had streamed %d of %d rows at client's first row — not incremental", streamed, items)
	}
	forest := []*xmltree.Node{rows.Node()}
	for rows.Next() {
		forest = append(forest, rows.Node())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(forest) != items {
		t.Errorf("rows = %d, want %d", len(forest), items)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerAbandonsStreamOnHangup: a client that hangs up mid-stream
// makes the server's next buffer write fail; the server closes its
// cursor and stops evaluating instead of producing rows nobody reads.
func TestServerAbandonsStreamOnHangup(t *testing.T) {
	const items = 3000
	c, srv := startBigStreamServer(t, items)
	rows, err := c.Query(context.Background(),
		`for $i in doc("catalog")/item return <r>{$i/name}{$i/desc}</r>`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close() // after the hangup: releases the client-side guard only
	for i := 0; i < 2; i++ {
		if !rows.Next() {
			t.Fatalf("row %d: %v", i, rows.Err())
		}
	}
	// Hang up: close the TCP connection with the stream open.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	gauges := srv.MetricsRegistry().Snapshot().Gauges
	for gauges["wire.streams_aborted"] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server never aborted the stream: %v", gauges)
		}
		time.Sleep(5 * time.Millisecond)
		gauges = srv.MetricsRegistry().Snapshot().Gauges
	}
	if gauges["wire.rows_streamed"] >= items {
		t.Errorf("server streamed all %d rows after hangup", gauges["wire.rows_streamed"])
	}
	if gauges["wire.streams_started"] != 1 || gauges["wire.streams_aborted"] != 1 {
		t.Errorf("gauges = %v", gauges)
	}
}

// TestClientCloseMidStreamKeepsConnection: Rows.Close on the client
// drains the protocol stream (so the connection stays usable) even
// though only a prefix was consumed.
func TestClientCloseMidStreamKeepsConnection(t *testing.T) {
	c, _ := startBigStreamServer(t, 50)
	rows, err := c.Query(context.Background(), `doc("catalog")/item/name`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := c.QueryAll(`doc("catalog")/item[price < 5]/name`)
	if err != nil {
		t.Fatalf("connection unusable after mid-stream Close: %v", err)
	}
	if len(out) == 0 {
		t.Error("follow-up query returned nothing")
	}
}
