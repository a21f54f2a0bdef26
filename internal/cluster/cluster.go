// Package cluster is the federated control plane: adaptive view
// placement across real axmlpeer processes over TCP, where
// internal/placement runs it across simulated peers in one process.
//
// Roles:
//
//   - A Member wraps one deployment (one axmlpeer process): it
//     registers with the coordinator (HELLO heartbeats), reports its
//     placement demand on request (DEMAND — the serializable form of
//     its placement.Observer aggregates, selectivities estimated
//     locally where the data lives), actuates shipping orders
//     (MIGRATE/REPLICATE send the materialized view to another member
//     via ACCEPTVIEW; DROPVIEW drops the local copy) and forwards
//     queries over documents another member hosts (one hop, marked
//     +fwd so demand is attributed once and routes cannot loop).
//
//   - The Coordinator is the membership seen as a
//     placement.Deployment, and runs the one placement.Controller over
//     itself: to observe it collects every member's demand export
//     (per-call timeouts, bounded retry with backoff) and merges them
//     into per-(view, member) loads; to act it turns a decision into
//     control verbs. Rounds, cooldown, budgets, the decision log and
//     the round trace are the controller's, exactly as in process. It
//     fails open: an unreachable member degrades to its last-known
//     demand, decayed each missed round — a down peer ages out of the
//     demand picture instead of wedging the round — and gets a single
//     attempt per round until it answers again.
//
// The Harness spawns real OS processes for tests.
//
// What this layer deliberately does not do yet: cross-deployment view
// maintenance. A view adopted from another member is a point-in-time
// snapshot, refreshed only by a re-ship (the next REPLICATE to the
// same member swaps the content in place); gossip-style delta
// propagation between deployments is the natural follow-on.
package cluster

import (
	"context"
	"time"

	"axml/internal/wire"
)

// dial opens a control connection with timeout bounding both the
// connect and every read and write on it.
func dial(addr string, timeout time.Duration) (*wire.Client, error) {
	return wire.Dial(addr, wire.WithDialTimeout(timeout), wire.WithIOTimeout(timeout))
}

// call runs one control RPC on a fresh connection: dial, fn under a
// context bounded by the same timeout, close.
func call(ctx context.Context, addr string, timeout time.Duration,
	fn func(context.Context, *wire.Client) error) error {
	cl, err := dial(addr, timeout)
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	return fn(ctx, cl)
}
