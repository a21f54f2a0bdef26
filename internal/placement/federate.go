// Demand export: the serializable form of one deployment's placement
// signals, shipped coordinator-ward as the reply of a member's x:demand
// service. A
// member summarizes its Observer aggregates (per-document demand with
// per-shape weights and locally estimated selectivities, Observer.Loads)
// and its view placements; the cluster coordinator (internal/cluster)
// merges exports across members into the ViewLoads its Controller
// plans from. Selectivities are estimated member-side — where the data
// and the optimizer's statistics live — so the coordinator never needs
// the documents themselves.

package placement

import (
	"fmt"
	"strconv"

	"axml/internal/xmltree"
)

// Export is one deployment's demand report.
type Export struct {
	// Member identifies the reporting deployment.
	Member string
	Views  []ViewExport
	Loads  []LoadExport
}

// ViewExport describes one view placement the member holds.
type ViewExport struct {
	Name  string
	Query string
	Mode  string // "incremental", "recompute" or "adopted"
	// Origin is the member owning the view's base document (the member
	// that defined it; adopted copies carry it along).
	Origin string
	// BaseDoc is the primary base document the view derives from.
	BaseDoc string
	// Base reports whether this deployment hosts the base document.
	Base  bool
	Bytes int64
	Trees int
}

// LoadExport is the decayed query demand one document saw at the
// member, split by normalized query shape.
type LoadExport struct {
	Doc    string
	Weight float64
	Shapes []ShapeExport
}

// ShapeExport is one query shape's decayed weight and the member's
// selectivity estimate for it.
type ShapeExport struct {
	Key    string
	Weight float64
	Sel    float64
}

// Decayed returns a copy of the export with every demand weight scaled
// by factor — the fail-open stand-in for a member that missed an x:demand
// round: its last-known demand ages instead of vanishing (or wedging
// the round), so a transient outage degrades smoothly.
func (e Export) Decayed(factor float64) Export {
	out := e
	out.Loads = make([]LoadExport, len(e.Loads))
	for i, l := range e.Loads {
		nl := l
		nl.Weight *= factor
		nl.Shapes = make([]ShapeExport, len(l.Shapes))
		for j, sh := range l.Shapes {
			sh.Weight *= factor
			nl.Shapes[j] = sh
		}
		out.Loads[i] = nl
	}
	return out
}

// PerQueryBytes estimates what one query against a view ships from a
// placement to its consumer: the view size scaled by the
// demand-weighted mean selectivity of the observed query shapes (the
// optimizer's own cardinality model, see Observer.Loads), floored like
// the estimator floors outputs.
func PerQueryBytes(viewBytes int64, loads []LoadExport) float64 {
	sel, weight := 0.0, 0.0
	for _, l := range loads {
		for _, sh := range l.Shapes {
			s := sh.Sel
			if s <= 0 {
				s = 1
			}
			sel += s * sh.Weight
			weight += sh.Weight
		}
	}
	if weight > 0 {
		sel /= weight
	} else {
		sel = 1
	}
	out := float64(viewBytes) * sel
	if out < 16 {
		out = 16
	}
	return out
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// ToXML renders the export as a single x:demand element (one line on
// the wire; xmltree escapes attribute values, so query strings with
// quotes survive the round trip).
func (e Export) ToXML() *xmltree.Node {
	root := xmltree.E("x:demand", xmltree.A("member", e.Member))
	for _, v := range e.Views {
		root.AppendChild(xmltree.E("view",
			xmltree.A("name", v.Name),
			xmltree.A("query", v.Query),
			xmltree.A("mode", v.Mode),
			xmltree.A("origin", v.Origin),
			xmltree.A("basedoc", v.BaseDoc),
			xmltree.A("base", strconv.FormatBool(v.Base)),
			xmltree.A("bytes", fmt.Sprint(v.Bytes)),
			xmltree.A("trees", fmt.Sprint(v.Trees))))
	}
	for _, l := range e.Loads {
		le := xmltree.E("load",
			xmltree.A("doc", l.Doc),
			xmltree.A("weight", ftoa(l.Weight)))
		for _, sh := range l.Shapes {
			le.AppendChild(xmltree.E("shape",
				xmltree.A("key", sh.Key),
				xmltree.A("weight", ftoa(sh.Weight)),
				xmltree.A("sel", ftoa(sh.Sel))))
		}
		root.AppendChild(le)
	}
	return root
}

// ExportFromXML parses an x:demand element back into an Export. It is
// liberal about missing attributes (they default to zero values) but
// strict about the element labels, so a truncated or foreign reply
// fails loudly instead of decoding as an empty demand.
func ExportFromXML(root *xmltree.Node) (Export, error) {
	if root == nil || root.Label != "x:demand" {
		return Export{}, fmt.Errorf("placement: demand reply is not x:demand")
	}
	var e Export
	e.Member, _ = root.Attr("member")
	atoi := func(s string) int64 {
		n, _ := strconv.ParseInt(s, 10, 64)
		return n
	}
	atof := func(s string) float64 {
		f, _ := strconv.ParseFloat(s, 64)
		return f
	}
	for _, ch := range root.ChildElements() {
		switch ch.Label {
		case "doc":
			// A document inventory older members still send; nothing reads it.
		case "view":
			var v ViewExport
			v.Name, _ = ch.Attr("name")
			v.Query, _ = ch.Attr("query")
			v.Mode, _ = ch.Attr("mode")
			v.Origin, _ = ch.Attr("origin")
			v.BaseDoc, _ = ch.Attr("basedoc")
			base, _ := ch.Attr("base")
			v.Base = base == "true"
			bytes, _ := ch.Attr("bytes")
			v.Bytes = atoi(bytes)
			trees, _ := ch.Attr("trees")
			v.Trees = int(atoi(trees))
			e.Views = append(e.Views, v)
		case "load":
			var l LoadExport
			l.Doc, _ = ch.Attr("doc")
			w, _ := ch.Attr("weight")
			l.Weight = atof(w)
			for _, sh := range ch.ChildElementsByLabel("shape") {
				var s ShapeExport
				s.Key, _ = sh.Attr("key")
				sw, _ := sh.Attr("weight")
				s.Weight = atof(sw)
				sl, _ := sh.Attr("sel")
				s.Sel = atof(sl)
				l.Shapes = append(l.Shapes, s)
			}
			e.Loads = append(e.Loads, l)
		default:
			return Export{}, fmt.Errorf("placement: unexpected demand element %q", ch.Label)
		}
	}
	return e, nil
}

// ToXML renders one decision as a decision element; PLACEMENTS lists
// them and a coordinator's x:step service replies with them.
func (d Decision) ToXML() *xmltree.Node {
	return xmltree.E("decision",
		xmltree.A("round", fmt.Sprint(d.Round)),
		xmltree.A("view", d.View),
		xmltree.A("action", d.Action),
		xmltree.A("from", string(d.From)),
		xmltree.A("to", string(d.To)),
		xmltree.A("gain", ftoa(d.GainPerRound)),
		xmltree.A("onetime", ftoa(d.OneTime)),
		xmltree.A("reason", d.Reason),
		xmltree.A("summary", d.String()))
}
