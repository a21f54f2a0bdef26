package closeguard

import (
	"axml/internal/core"
	"axml/internal/session"
	"axml/internal/xmltree"
)

func pull() (core.Row, error) { return core.Row{}, nil }

func leak() bool {
	rows := session.NewRows(pull, nil) // want `session\.Rows rows is never Closed`
	return rows.Next()
}

func deferredClose() error {
	rows := session.NewRows(pull, nil)
	defer rows.Close()
	for rows.Next() {
	}
	return rows.Err()
}

func collected() ([]*xmltree.Node, error) {
	rows := session.NewRows(pull, nil)
	return rows.Collect() // Collect drains and closes: fine
}

func handedOff() *session.Rows {
	rows := session.NewRows(pull, nil)
	return rows // caller owns the stream now: fine
}

func passedAlong(drain func(*session.Rows)) {
	rows := session.NewRows(pull, nil)
	drain(rows) // callee owns it: fine
}

func deliberate() bool {
	//axmlvet:ignore closeguard harness closes it via finalizer table
	rows := session.NewRows(pull, nil)
	return rows.Next()
}
