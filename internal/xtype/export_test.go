package xtype

import (
	"fmt"

	"axml/internal/xmltree"
)

// CheckOutput validates a result tree against τout.
func (sig *Signature) CheckOutput(out *xmltree.Node) error {
	if sig == nil || sig.Out == nil {
		return nil
	}
	if !sig.Out.Conforms(out) {
		return fmt.Errorf("xtype: result does not conform to %s", sig.Out)
	}
	return nil
}
