package xquery

import (
	"testing"

	"axml/internal/xmltree"
)

// churnEnv builds a catalog whose nodes carry identifiers, as they
// would inside a peer, so lineage is keyed by NodeID.
func churnEnv(t *testing.T, src string) (*xmltree.Node, *Env) {
	t.Helper()
	cat := xmltree.MustParse(src)
	var g xmltree.SeqIDGen
	xmltree.AssignIDs(cat, &g)
	return cat, &Env{Resolve: func(string) (*xmltree.Node, error) { return cat, nil }}
}

func mustEvents(t *testing.T, d *DeltaFor) *Events {
	t.Helper()
	ev, err := d.DeltaEvents()
	if err != nil {
		t.Fatalf("DeltaEvents: %v", err)
	}
	return ev
}

func TestDeltaEventsDeletionRetracts(t *testing.T) {
	cat, env := churnEnv(t,
		`<catalog><item><price>10</price></item><item><price>12</price></item></catalog>`)
	q := MustParse(`for $i in doc("c")/item where $i/price < 15 return <hit>{$i/price/text()}</hit>`)
	d, ok := NewDeltaFor(q, env)
	if !ok {
		t.Fatal("NewDeltaFor rejected single-for query")
	}
	ev := mustEvents(t, d)
	if len(ev.Additions) != 2 || len(ev.Retractions) != 0 {
		t.Fatalf("initial events = %d additions, %d retractions", len(ev.Additions), len(ev.Retractions))
	}
	victim := cat.Children[0]
	victimKey := LineageOf(victim)
	victim.Detach()

	ev = mustEvents(t, d)
	if len(ev.Additions) != 0 {
		t.Errorf("deletion produced %d additions", len(ev.Additions))
	}
	if len(ev.Retractions) != 1 || ev.Retractions[0] != victimKey {
		t.Errorf("retractions = %v, want exactly the deleted source", ev.Retractions)
	}
	// The state has converged: the next step is empty.
	if ev = mustEvents(t, d); !ev.Empty() {
		t.Errorf("post-deletion step not empty: %+v", ev)
	}
}

func TestDeltaEventsInPlaceUpdateRederivesOnce(t *testing.T) {
	cat, env := churnEnv(t, `<catalog><item><price>10</price></item></catalog>`)
	q := MustParse(`for $i in doc("c")/item where $i/price < 15 return <hit>{$i/price/text()}</hit>`)
	d, _ := NewDeltaFor(q, env)
	mustEvents(t, d)

	// Mutate the source subtree in place; the node keeps its identity.
	item := cat.Children[0]
	item.FirstChildElement("price").Children[0].Text = "12"

	ev := mustEvents(t, d)
	if len(ev.Retractions) != 1 || ev.Retractions[0] != LineageOf(item) {
		t.Fatalf("update retractions = %v", ev.Retractions)
	}
	if len(ev.Additions) != 1 || ev.Additions[0].Source != LineageOf(item) {
		t.Fatalf("update additions = %+v", ev.Additions)
	}
	if got := ev.Additions[0].Results[0].TextContent(); got != "12" {
		t.Errorf("re-derived result = %q, want 12", got)
	}
	if ev = mustEvents(t, d); !ev.Empty() {
		t.Errorf("second step after update not empty: %+v", ev)
	}
}

func TestDeltaEventsUpdateOutOfRange(t *testing.T) {
	// An update that moves the source outside the predicate retracts
	// the old row and derives nothing new.
	cat, env := churnEnv(t, `<catalog><item><price>10</price></item></catalog>`)
	q := MustParse(`for $i in doc("c")/item where $i/price < 15 return $i`)
	d, _ := NewDeltaFor(q, env)
	mustEvents(t, d)
	cat.Children[0].FirstChildElement("price").Children[0].Text = "999"
	ev := mustEvents(t, d)
	if len(ev.Retractions) != 1 {
		t.Errorf("retractions = %d, want 1", len(ev.Retractions))
	}
	if trees := ev.AddedTrees(); len(trees) != 0 {
		t.Errorf("out-of-range update still derived %d trees", len(trees))
	}
	// And back in range: re-derivation without a retraction (the old
	// derivation had no results to withdraw).
	cat.Children[0].FirstChildElement("price").Children[0].Text = "5"
	ev = mustEvents(t, d)
	if len(ev.Retractions) != 0 || len(ev.AddedTrees()) != 1 {
		t.Errorf("back-in-range: %d retractions, %d additions", len(ev.Retractions), len(ev.AddedTrees()))
	}
}

func TestDeltaEventsRollbackReemits(t *testing.T) {
	cat, env := churnEnv(t,
		`<catalog><item><price>10</price></item><item><price>12</price></item></catalog>`)
	q := MustParse(`for $i in doc("c")/item where $i/price < 15 return $i`)
	d, _ := NewDeltaFor(q, env)
	mustEvents(t, d)

	cat.Children[0].Detach()
	// The fresh item keeps zero IDs: lineage falls back to pointer
	// identity, exercising the mixed-key case.
	cat.AppendChild(xmltree.MustParse(`<item><price>3</price></item>`))

	ev1 := mustEvents(t, d)
	if ev1.Empty() {
		t.Fatal("churn produced no events")
	}
	// Delivery failed: roll back, the very same events must reappear.
	d.Rollback()
	ev2 := mustEvents(t, d)
	if len(ev2.Additions) != len(ev1.Additions) || len(ev2.Retractions) != len(ev1.Retractions) {
		t.Errorf("rollback did not re-emit: first %d/%d, second %d/%d",
			len(ev1.Additions), len(ev1.Retractions), len(ev2.Additions), len(ev2.Retractions))
	}
}
