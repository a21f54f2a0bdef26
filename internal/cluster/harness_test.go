package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"axml/internal/netsim"
	"axml/internal/placement"
	"axml/internal/wire"
)

// TestHarnessFederationSmoke runs the federation against real OS
// processes: one coordinator and two member axmlpeer processes over
// TCP. Member A hosts the catalog and a full-copy view, member B sends
// all the queries; one x:step call moves the copy to B, and every process
// shuts down gracefully on SIGTERM. This is the CI federation-smoke
// target.
func TestHarnessFederationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	h, err := NewHarness(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	coord, err := h.Start(PeerSpec{ID: "coord", Coordinator: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.Start(PeerSpec{ID: "a",
		Docs:      map[string]string{"catalog": catalogXML(40)},
		Join:      coord.Addr,
		Heartbeat: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Start(PeerSpec{ID: "b", Join: coord.Addr, Heartbeat: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	cc := dialT(t, coord.Addr)
	waitFor(t, 10*time.Second, "both members to register", func() bool {
		snap, err := cc.Stats(ctx)
		return err == nil && snap.Gauges["cluster.members"] == 2
	})

	ca := dialT(t, a.Addr)
	if err := ca.DefineView(ctx, "copy", `doc("catalog")`); err != nil {
		t.Fatal(err)
	}

	// All demand arrives at B. The first queries may race B's route
	// discovery (a heartbeat away), so poll the first one in.
	cb := dialT(t, b.Addr)
	waitFor(t, 10*time.Second, "B to forward the first query", func() bool {
		out, err := cb.QueryAll(`doc("catalog")/item/name`)
		return err == nil && len(out) == 40
	})
	for i := 0; i < 12; i++ {
		out, err := cb.QueryAll(`doc("catalog")/item/name`)
		if err != nil || len(out) != 40 {
			t.Fatalf("forwarded query %d: rows=%d err=%v", i, len(out), err)
		}
	}

	decisions, err := step(ctx, cc)
	if err != nil {
		t.Fatal(err)
	}
	var moved bool
	for _, d := range decisions {
		if d.View == "copy" && d.To == "b" && (d.Action == "migrate" || d.Action == "replicate") {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("x:step over real TCP did not move the copy to b: %+v", decisions)
	}

	// B serves the adopted copy locally now.
	lines, err := cb.Placements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !containsLine(lines, "copy@b") {
		t.Fatalf("b's placements after migrate = %v", lines)
	}
	if out, err := cb.QueryAll(`doc("catalog")/item/name`); err != nil || len(out) != 40 {
		t.Fatalf("query after migration: rows=%d err=%v", len(out), err)
	}

	// The next round's fresh demand exports surface the landed copy in
	// the coordinator's aggregated placement map and decision log.
	if _, err := step(ctx, cc); err != nil {
		t.Fatal(err)
	}
	lines, err = cc.Placements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !containsLine(lines, "copy@b") || !containsAction(lines) {
		t.Fatalf("coordinator placements = %v, want copy@b and a decision", lines)
	}

	// Graceful shutdown: SIGTERM drains and exits cleanly, within the
	// timeout, on every process.
	for _, p := range []*Proc{b, a, coord} {
		if err := p.Stop(10 * time.Second); err != nil {
			t.Errorf("graceful stop of %s: %v\n%s", p.ID, err, p.Output())
		}
	}
	for _, p := range []*Proc{b, a, coord} {
		if !strings.Contains(p.Output(), "shutdown complete") {
			t.Errorf("%s did not report a clean drain:\n%s", p.ID, p.Output())
		}
	}
}

// step runs one round through the coordinator's x:step service.
func step(ctx context.Context, cl *wire.Client) ([]placement.Decision, error) {
	out, err := cl.Call(ctx, "x:step")
	if err != nil {
		return nil, err
	}
	if len(out) != 1 {
		return nil, fmt.Errorf("x:step replied %d trees, want 1", len(out))
	}
	var decisions []placement.Decision
	for _, ch := range out[0].ChildElementsByLabel("decision") {
		var d placement.Decision
		d.View, _ = ch.Attr("view")
		d.Action, _ = ch.Attr("action")
		to, _ := ch.Attr("to")
		d.To = netsim.PeerID(to)
		decisions = append(decisions, d)
	}
	return decisions, nil
}

func containsLine(lines []string, want string) bool {
	for _, l := range lines {
		if strings.Contains(l, want) {
			return true
		}
	}
	return false
}

func containsAction(lines []string) bool {
	for _, l := range lines {
		if strings.Contains(l, "migrate") || strings.Contains(l, "replicate") {
			return true
		}
	}
	return false
}
