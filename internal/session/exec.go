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

// parseReplace splits `<path query> with <xml>` at a case-insensitive
// " with " separator. The keyword may legitimately appear inside the
// query (a string literal like [note="born with luck"]), so every
// candidate split is tried in order and the first whose halves both
// parse — query on the left, XML on the right — wins.
func parseReplace(rest string) (*Update, error) {
	low := strings.ToLower(rest)
	var firstErr error
	for at := 0; ; {
		i := strings.Index(low[at:], " with ")
		if i < 0 {
			break
		}
		i += at
		at = i + 1
		qsrc := rest[:i]
		xml := strings.TrimSpace(rest[i+len(" with "):])
		if strings.TrimSpace(qsrc) == "" || xml == "" {
			continue
		}
		q, err := xquery.Parse(qsrc)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: replace: %v", ErrBadQuery, err)
			}
			continue
		}
		tree, err := xmltree.Parse(xml)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: replace payload: %v", ErrBadQuery, err)
			}
			continue
		}
		return &Update{Kind: "replace", Query: q, With: tree}, nil
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, fmt.Errorf("%w: replace requires '<path query> with <xml>'", ErrBadQuery)
}

// ApplyUpdate executes an update against one peer's store and returns
// the number of nodes touched. Selected nodes that vanish because an
// earlier removal/replacement took an ancestor with them are skipped.
func ApplyUpdate(p *peer.Peer, u *Update) (int, error) {
	ids, err := p.SelectIDs(u.Query)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range ids {
		if _, ok := p.NodeByID(id); !ok {
			continue
		}
		switch u.Kind {
		case "delete":
			if err := p.RemoveChildByID(0, id); err != nil {
				return n, fmt.Errorf("after %d removal(s): %w", n, err)
			}
		case "replace":
			if err := p.ReplaceChildByID(0, id, xmltree.DeepCopy(u.With)); err != nil {
				return n, fmt.Errorf("after %d replacement(s): %w", n, err)
			}
		default:
			return n, fmt.Errorf("session: unknown update kind %q", u.Kind)
		}
		n++
	}
	return n, nil
}
