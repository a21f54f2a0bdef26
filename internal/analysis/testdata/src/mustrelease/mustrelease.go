// Package mustrelease is the fixture for a test-only row of the
// must-release table (mustrelease_test.go): a toy acquire/release pair
// that no shipped analyzer knows about.
package mustrelease

type res struct{ n int }

func acquire() (*res, error) { return &res{}, nil }

func (r *res) release()  {}
func (r *res) size() int { return r.n }

func leakOnOneBranch(ok bool) int {
	r, _ := acquire()
	if ok {
		r.release()
		return 0
	}
	return r.size() // want `return without releasing toy r \(acquired at line 14\)`
}

func releasedInEveryBranch(ok bool) int {
	r, _ := acquire()
	if ok {
		r.release()
	} else {
		r.release()
	}
	return 0
}

func deferredRelease() int {
	r, _ := acquire()
	defer r.release()
	return r.size()
}

func escapesByReturn() *res {
	r, _ := acquire()
	return r // the caller's to release
}

func panicTerminatedPath(bad bool) {
	r, _ := acquire()
	if bad {
		panic("bad") // never reaches the exit: no release demanded
	}
	r.release()
}

func neverReleased() int {
	r, _ := acquire() // want `toy r is acquired but never released`
	return r.size()
}

func fallsOff(ok bool) {
	r, _ := acquire() // want `toy r may not be released when fallsOff falls off the end`
	if ok {
		r.release()
	}
}

func failedAcquireHasNothingToRelease() error {
	r, err := acquire()
	if err != nil {
		return err
	}
	r.release()
	return nil
}
