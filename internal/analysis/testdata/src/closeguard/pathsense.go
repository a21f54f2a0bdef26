package closeguard

import (
	"context"

	"axml/internal/session"
	"axml/internal/xmltree"
)

// Path-sensitive cases for the PR 8 CFG rewrite: a close on one path
// no longer excuses a leak on another, and the error branch of a
// failed constructor is exempt.

// conditionalClose closes via Collect on one path and leaks on the
// other — PR 7 accepted any Close anywhere in the function.
func conditionalClose(collect bool) ([]*xmltree.Node, error) {
	rows := session.NewRows(pull, nil)
	if collect {
		return rows.Collect()
	}
	return nil, rows.Err() // want `return without closing .*session\.Rows rows`
}

// errGuarded: when the constructor fails there is no stream to close;
// the err != nil branch must stay quiet.
func errGuarded(ctx context.Context, stmt *session.Stmt) error {
	rows, err := stmt.Query(ctx)
	if err != nil {
		return err // nothing to close: fine
	}
	defer rows.Close()
	for rows.Next() {
	}
	return rows.Err()
}

// errGuardedLeak: the guard exempts only the failure branch — the
// success path still has to close.
func errGuardedLeak(ctx context.Context, stmt *session.Stmt) (bool, error) {
	rows, err := stmt.Query(ctx)
	if err != nil {
		return false, err
	}
	if rows.Next() {
		rows.Close()
		return true, nil
	}
	return false, rows.Err() // want `return without closing .*session\.Rows rows`
}

// redeclaredErrGuard: the second `rows, err :=` reuses an err already
// in scope, so the error object resolves through Uses rather than Defs
// — the guard exemption must still attach (the axmlvet run over
// internal/bench flagged exactly this shape as a false positive).
func redeclaredErrGuard(ctx context.Context, stmt *session.Stmt) error {
	first, err := stmt.Query(ctx)
	if err != nil {
		return err
	}
	defer first.Close()
	rows, err := stmt.Query(ctx)
	if err != nil {
		return err // constructor failed: nothing to close, stays quiet
	}
	defer rows.Close()
	return rows.Err()
}

// staleErrGuard: once err is overwritten by a later call, `if err !=
// nil` says nothing about the constructor — the exemption must not
// excuse that branch.
func staleErrGuard(ctx context.Context, stmt *session.Stmt) error {
	rows, err := stmt.Query(ctx)
	if err != nil {
		return err
	}
	if err = touch(ctx); err != nil {
		return err // want `return without closing .*session\.Rows rows`
	}
	_, err = rows.Collect()
	return err
}

func touch(ctx context.Context) error { return ctx.Err() }

// deferClosureClose releases through a deferred closure, which runs on
// every exit.
func deferClosureClose() error {
	rows := session.NewRows(pull, nil)
	defer func() {
		rows.Close()
	}()
	for rows.Next() {
	}
	return rows.Err()
}

// fallOffOpen: a void function can drop the cursor by falling off the
// end of a branch that skipped the close.
func fallOffOpen(drainAll bool) {
	rows := session.NewRows(pull, nil) // want `session\.Rows rows may not be Closed when fallOffOpen falls off the end`
	if drainAll {
		rows.Close()
	}
}
