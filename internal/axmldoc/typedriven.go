package axmldoc

import (
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
// number of calls activated and whether conformance was reached.
func (a *Activator) ActivateToType(docName string, schema *xtype.Schema, maxRounds int) (activated int, conforms bool, err error) {
	// Activation publishes copy-on-write epochs, so every conformance
	// check must look at the newest root rather than a pointer captured
	// before the round.
	cur, err := a.root(docName)
	if err != nil {
		return 0, false, err
	}
	for round := 0; round < maxRounds; round++ {
		if typeConforms(cur, schema) {
			return activated, true, nil
		}
		// Find the invalid regions and the pending calls under them.
		pending, err := a.PendingCalls(docName)
		if err != nil {
			return activated, false, err
		}
		if len(pending) == 0 {
			return activated, typeConforms(cur, schema), nil
		}
		progressed := false
		for _, sc := range pending {
			if !underInvalidRegion(a, sc, schema) {
				continue
			}
			if err := a.ActivateNode(sc); err != nil {
				if _, notReady := err.(*NotReadyError); notReady {
					continue
				}
				return activated, false, err
			}
			activated++
			progressed = true
		}
		if !progressed {
			// No relevant calls left; activate the remainder as a last
			// resort (their results may indirectly complete the type).
			n, err := a.ActivateDocument(docName)
			if err != nil {
				return activated, false, err
			}
			activated += n
			if n == 0 {
				if cur, err = a.root(docName); err != nil {
					return activated, false, err
				}
				return activated, typeConforms(cur, schema), nil
			}
		}
		if cur, err = a.root(docName); err != nil {
			return activated, false, err
		}
	}
	return activated, typeConforms(cur, schema), nil
}

// typeConforms validates a view of the tree with sc elements and their
// bookkeeping removed (intensional parts do not count against the
// type; only materialized data does).
func typeConforms(root *xmltree.Node, schema *xtype.Schema) bool {
	view := xmltree.DeepCopy(root)
	stripActivationState(view)
	return schema.Valid(view)
}

// underInvalidRegion reports whether the sc's parent element currently
// violates its content model — i.e. whether activating this call can
// contribute to conformance. The parent is re-resolved through the
// peer's index so the check sees the newest epoch even when the sc
// node's Parent pointer climbs into an older spine.
func underInvalidRegion(a *Activator, sc *xmltree.Node, schema *xtype.Schema) bool {
	parent := sc.Parent
	if parent == nil {
		return true
	}
	if live, ok := a.Peer.NodeByID(parent.ID); ok {
		parent = live
	}
	view := xmltree.DeepCopy(parent)
	stripActivationState(view)
	// Validate the parent's subtree in isolation against its own
	// declaration: a sub-schema rooted at the parent's label.
	decl := schema.Elements[parent.Label]
	if decl == nil {
		return true // undeclared: activation may introduce declared content
	}
	sub := &xtype.Schema{Root: parent.Label, Elements: schema.Elements}
	return !sub.Valid(view)
}
