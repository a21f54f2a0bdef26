package axmldoc

import (
	"context"
	"errors"

	"axml/internal/xmltree"
	"axml/internal/xtype"
)

// Type-driven activation — the paper's §2.2 mentions activating a call
// "in order to turn d0's XML type in some other desired type" (the
// rewriting of reference [6], listed as ongoing work in §4). This file
// operationalizes the idea: activate pending calls, lazily and only as
// many as needed, until the document conforms to a target schema.
//
// The strategy is goal-directed rather than exhaustive: after each
// round only the subtrees that still violate the schema have their
// calls activated, so calls living under already-valid regions are
// left dormant — the economic point of type-driven rewriting.

// ActivateToType activates pending service calls until the document
// validates against the schema (ignoring the sc elements themselves
// and their bookkeeping) or maxRounds is exhausted. It returns the
// number of calls activated and whether conformance was reached. Each
// round reads the document once, from one pinned epoch.
func (a *Activator) ActivateToType(ctx context.Context, docName string, schema *xtype.Schema, maxRounds int) (activated int, conforms bool, err error) {
	for round := 0; ; round++ {
		root, err := a.root(docName)
		if err != nil {
			return activated, false, err
		}
		// sc elements do not count against the type; only materialized
		// data does.
		if schema.Valid(dataOf(root)) {
			return activated, true, nil
		}
		if round == maxRounds {
			return activated, false, nil
		}
		// Activate the pending calls under invalid regions.
		var goal []*xmltree.Node
		calls(root, func(sc, parent *xmltree.Node) {
			if !isActive(sc) && underInvalidRegion(parent, schema) {
				goal = append(goal, sc)
			}
		})
		n := 0
		for _, sc := range goal {
			err := a.ActivateNode(ctx, docName, sc)
			var notReady *NotReadyError
			switch {
			case err == nil:
				n++
			case errors.Is(err, ErrNotPending), errors.As(err, &notReady):
			default:
				return activated, false, err
			}
		}
		if n == 0 {
			// No relevant calls left; activate the remainder as a last
			// resort (their results may indirectly complete the type).
			if n, err = a.ActivateDocument(ctx, docName); err != nil || n == 0 {
				return activated, false, err
			}
		}
		activated += n
	}
}

// underInvalidRegion reports whether an sc's parent element, as pinned,
// violates its content model — i.e. whether activating the call can
// contribute to conformance.
func underInvalidRegion(parent *xmltree.Node, schema *xtype.Schema) bool {
	if schema.Elements[parent.Label] == nil {
		return true // undeclared: activation may introduce declared content
	}
	// Validate the parent's subtree in isolation against its own
	// declaration: a sub-schema rooted at the parent's label.
	sub := &xtype.Schema{Root: parent.Label, Elements: schema.Elements}
	return !sub.Valid(dataOf(parent))
}
