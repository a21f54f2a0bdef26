package wire

import (
	"bufio"
	"context"
	"errors"
	"net"
	"slices"
	"testing"

	"axml/internal/session"
	"axml/internal/xmltree"
)

// cheapNames are the rows of cheapQuery over startBigStreamServer's
// 400-item catalog, whose item i has price i%100.
const cheapQuery = `doc("catalog")/item[price < 2]/name`

var cheapNames = []string{
	"<name>n-00000</name>", "<name>n-00001</name>", "<name>n-00100</name>", "<name>n-00101</name>",
	"<name>n-00200</name>", "<name>n-00201</name>", "<name>n-00300</name>", "<name>n-00301</name>",
}

func serialized(rows []*xmltree.Node) []string {
	out := make([]string, len(rows))
	for i, n := range rows {
		out[i] = xmltree.Serialize(n)
	}
	return out
}

// cancelAfterFirstRow opens a stream of 400 rows of 2 KB each, reads
// one, cancels, and reads on until the stream ends.
func cancelAfterFirstRow(t *testing.T, c *Client) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := c.Query(ctx, `doc("catalog")/item`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, session.ErrCanceled) {
		t.Errorf("canceled stream ended with %v, want ErrCanceled", err)
	}
	rows.Close()
}

// TestPreCanceledCallsLeaveClientUsable: a query or a statement under
// a context that is already done fails with ErrCanceled before anything
// is sent, so the connection is as it was, and the next call on it
// gets exactly its own rows.
func TestPreCanceledCallsLeaveClientUsable(t *testing.T) {
	c, _, _ := startViewServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := range 200 {
		var err error
		if i%2 == 0 {
			_, err = c.Query(ctx, `doc("catalog")/item/name`)
		} else {
			_, err = c.Exec(ctx, `delete doc("catalog")/item[price > 1000]`)
		}
		if !errors.Is(err, session.ErrCanceled) {
			t.Fatalf("call %d under a canceled context: %v, want ErrCanceled", i, err)
		}
	}
	rows, err := c.QueryAll(`doc("catalog")/item/name`)
	if err != nil {
		t.Fatalf("query after the canceled calls: %v", err)
	}
	if got, want := serialized(rows), []string{"<name>chair</name>", "<name>desk</name>"}; !slices.Equal(got, want) {
		t.Errorf("rows %q, want %q", got, want)
	}
}

// TestCanceledStreamLeavesClientUsable: a stream canceled after its
// first row leaves the rest of its reply unread on the connection. The
// next call redials instead of reading those leftovers, and gets
// exactly its own rows.
func TestCanceledStreamLeavesClientUsable(t *testing.T) {
	c, _ := startBigStreamServer(t, 400)
	cancelAfterFirstRow(t, c)
	rows, err := c.QueryAll(cheapQuery)
	if err != nil {
		t.Fatalf("query after the canceled stream: %v", err)
	}
	if got := serialized(rows); !slices.Equal(got, cheapNames) {
		t.Errorf("rows %q, want %q", got, cheapNames)
	}
}

// TestCanceledStreamOverPipe: a client over a connection it cannot
// redial (here one end of a pipe) fails its next call with ErrPeerDown
// after a canceled stream, rather than read what that stream left.
func TestCanceledStreamOverPipe(t *testing.T) {
	_, srv := startBigStreamServer(t, 400)
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	go srv.handle(srvConn)
	sc := bufio.NewScanner(cliConn)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	c := &Client{conn: cliConn, sc: sc}
	cancelAfterFirstRow(t, c)
	rows, err := c.QueryAll(cheapQuery)
	if !errors.Is(err, session.ErrPeerDown) {
		t.Errorf("query after the canceled stream: %d rows, %v; want ErrPeerDown", len(rows), err)
	}
}
