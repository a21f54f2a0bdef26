package session

import (
	"fmt"
	"strings"

	"axml/internal/peer"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// The Exec statement language: updates as statements, so local and
// remote sessions (the wire's EXEC verb) execute them through the same
// call.
//
//	delete <path query>
//	replace <path query> with <xml>
//
// Anything else is treated as a plain query (results discarded).

// Update is one parsed update statement.
type Update struct {
	// Kind is "delete" or "replace".
	Kind string
	// Query selects the target nodes (a bare path query).
	Query *xquery.Query
	// With is the replacement tree (replace only).
	With *xmltree.Node
}

// ParseUpdate recognizes an update statement. ok reports whether src
// *is* one (by leading keyword); err reports whether it parses. A
// false ok means "not an update — treat as a query".
func ParseUpdate(src string) (*Update, bool, error) {
	trimmed := strings.TrimSpace(src)
	lower := strings.ToLower(trimmed)
	switch {
	case strings.HasPrefix(lower, "delete "):
		qsrc := strings.TrimSpace(trimmed[len("delete "):])
		q, err := xquery.Parse(qsrc)
		if err != nil {
			return nil, true, fmt.Errorf("%w: delete: %v", ErrBadQuery, err)
		}
		return &Update{Kind: "delete", Query: q}, true, nil
	case strings.HasPrefix(lower, "replace "):
		rest := trimmed[len("replace "):]
		upd, err := parseReplace(rest)
		return upd, true, err
	default:
		return nil, false, nil
	}
}

// parseReplace reads `<path query> with <xml>`: the query is parsed
// once, up to the first token that cannot continue it, which must be
// the keyword with (in any case); the rest is the XML.
func parseReplace(rest string) (*Update, error) {
	q, end, err := xquery.ParsePrefix(rest)
	if err != nil {
		return nil, fmt.Errorf("%w: replace: %v", ErrBadQuery, err)
	}
	after := rest[end:]
	if len(after) < len("with") || !strings.EqualFold(after[:len("with")], "with") {
		return nil, fmt.Errorf("%w: replace requires '<path query> with <xml>'", ErrBadQuery)
	}
	tree, err := xmltree.Parse(strings.TrimSpace(after[len("with"):]))
	if err != nil {
		return nil, fmt.Errorf("%w: replace payload: %v", ErrBadQuery, err)
	}
	return &Update{Kind: "replace", Query: q, With: tree}, nil
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
