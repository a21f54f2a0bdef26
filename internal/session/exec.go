package session

import (
	"context"
	"fmt"
	"strconv"

	"axml/internal/core"
	"axml/internal/peer"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// Update is a parsed update statement: Kind is "delete" or "replace",
// Query selects the target nodes (a bare path query), and With is
// replace's payload.
type Update = xquery.Statement

// ParseUpdate recognizes an update statement. ok reports whether src
// *is* one (by its leading tokens, xquery.StatementKind); err reports
// whether it parses. A false ok means "not an update".
func ParseUpdate(src string) (*Update, bool, error) {
	if kind := xquery.StatementKind(src); kind != "delete" && kind != "replace" {
		return nil, false, nil
	}
	st, err := badQuery(xquery.ParseStatement(src))
	if err != nil {
		return nil, true, err
	}
	return &st, true, nil
}

// run carries out a statement that is not a query: an update as one
// transaction at the peer hosting its document (updateHost: updates are
// location-transparent, as queries are), a declaration at the session's
// peer. It answers one row, <x:ok n="K"/> for an update and <x:ok/> for
// a declaration.
func (s *Local) run(st *xquery.Statement) (*Rows, error) {
	ok := xmltree.E("x:ok")
	var err error
	switch st.Kind {
	case "view":
		if st.At != "" && st.At != string(s.at) {
			return nil, fmt.Errorf("placement %q is not the session's peer %q", st.At, s.at)
		}
		err = s.views.DefineQuery(st.Name, st.Query, s.at)
	case "document":
		p, _ := s.sys.Peer(s.at)
		err = p.InstallDocument(st.Name, st.With)
	default:
		var p *peer.Peer
		if p, err = s.updateHost(st); err == nil {
			var n int
			n, err = ApplyUpdate(p, st)
			ok = xmltree.E("x:ok", xmltree.A("n", strconv.Itoa(n)))
		}
	}
	if err != nil {
		return nil, err
	}
	return NewRows(func() (core.Row, error) {
		row := core.NodeRow(ok)
		ok = nil
		return row, nil
	}, nil), nil
}

// Exec runs src through sess.Query, drains the rows and reports what
// Session.Exec does: an update's count of touched nodes, a
// declaration's 0, or a query's row count. Both backends' Exec is this.
func Exec(ctx context.Context, sess Session, src string, opts ...Option) (int, error) {
	rows, err := sess.Query(ctx, src, opts...)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	query := xquery.StatementKind(src) == "query"
	n := 0
	for rows.Next() {
		if query {
			n++
		} else if k, ok := rows.Node().Attr("n"); ok {
			n, _ = strconv.Atoi(k)
		}
	}
	if err := rows.Err(); err != nil {
		return 0, err
	}
	return n, nil
}

// ApplyUpdate executes an update against one peer's store as one
// transaction and returns the number of nodes touched: readers see the
// statement whole or not at all, and a statement that fails changes
// nothing. Selected nodes that vanish because an earlier removal or
// replacement took an ancestor with them are skipped.
func ApplyUpdate(p *peer.Peer, u *Update) (int, error) {
	if u.Kind != "delete" && u.Kind != "replace" {
		return 0, fmt.Errorf("session: unknown update kind %q", u.Kind)
	}
	ids, err := p.SelectIDs(u.Query)
	if err != nil {
		return 0, err
	}
	n := 0
	err = p.Write(func(tx *peer.Tx) error {
		for _, id := range ids {
			if !tx.Has(id) {
				continue
			}
			var err error
			if u.Kind == "delete" {
				err = tx.Remove(0, id)
			} else {
				err = tx.Replace(0, id, xmltree.DeepCopy(u.With))
			}
			if err != nil {
				return err
			}
			n++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}
