package core

import (
	"bytes"
	"fmt"
	"strings"

	"axml/internal/netsim"
	"axml/internal/peer"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// Expression ⇄ XML serialization (§3.1): expressions are XML trees
// whose root is labelled with the expression constructor and whose
// children are the parameters. This is what peers exchange when
// delegating evaluations (rules (14), (15)) — the plan itself travels
// as data.

// ToXML serializes an expression to its XML tree form.
func ToXML(e Expr) *xmltree.Node {
	switch v := e.(type) {
	case *Tree:
		n := xmltree.E("x:tree", xmltree.A("at", string(v.At)))
		n.AppendChild(xmltree.DeepCopy(v.Node))
		return n
	case *Doc:
		return xmltree.E("x:doc",
			xmltree.A("name", v.Name), xmltree.A("at", string(v.At)))
	case *Query:
		n := xmltree.E("x:query", xmltree.A("at", string(v.At)))
		if v.ShareArgs {
			n.SetAttr("share", "true")
		}
		n.AppendChild(xmltree.E("x:text", xmltree.T(v.Q.String())))
		for _, a := range v.Args {
			arg := xmltree.E("x:arg")
			arg.AppendChild(ToXML(a))
			n.AppendChild(arg)
		}
		return n
	case *QueryVal:
		n := xmltree.E("x:queryval",
			xmltree.A("at", string(v.At)), xmltree.A("name", v.Name))
		n.AppendChild(xmltree.E("x:text", xmltree.T(v.Q.String())))
		return n
	case *Send:
		n := xmltree.E("x:send")
		switch d := v.Dest.(type) {
		case DestPeer:
			n.AppendChild(xmltree.E("x:dest", xmltree.A("peer", string(d.P))))
		case DestDoc:
			n.AppendChild(xmltree.E("x:dest",
				xmltree.A("doc", d.Name), xmltree.A("at", string(d.At))))
		case DestNodes:
			dest := xmltree.E("x:dest")
			for _, r := range d.Refs {
				dest.AppendChild(xmltree.E("x:node", xmltree.A("ref", r.String())))
			}
			n.AppendChild(dest)
		}
		pl := xmltree.E("x:payload")
		pl.AppendChild(ToXML(v.Payload))
		n.AppendChild(pl)
		return n
	case *ServiceCall:
		n := xmltree.E("sc",
			xmltree.A("provider", string(v.Provider)),
			xmltree.A("service", v.Service))
		for _, p := range v.Params {
			param := xmltree.E("x:param")
			param.AppendChild(ToXML(p))
			n.AppendChild(param)
		}
		for _, f := range v.Forward {
			n.AppendChild(xmltree.E("x:forw", xmltree.A("ref", f.String())))
		}
		return n
	case *Relay:
		hops := make([]string, len(v.Via))
		for i, h := range v.Via {
			hops[i] = string(h)
		}
		n := xmltree.E("x:relay", xmltree.A("via", strings.Join(hops, " ")))
		switch d := v.Dest.(type) {
		case DestPeer:
			n.AppendChild(xmltree.E("x:dest", xmltree.A("peer", string(d.P))))
		case DestNodes:
			dest := xmltree.E("x:dest")
			for _, r := range d.Refs {
				dest.AppendChild(xmltree.E("x:node", xmltree.A("ref", r.String())))
			}
			n.AppendChild(dest)
		case DestDoc:
			n.AppendChild(xmltree.E("x:dest",
				xmltree.A("doc", d.Name), xmltree.A("at", string(d.At))))
		}
		pl := xmltree.E("x:payload")
		pl.AppendChild(ToXML(v.Payload))
		n.AppendChild(pl)
		return n
	case *EvalAt:
		n := xmltree.E("x:eval", xmltree.A("at", string(v.At)))
		n.AppendChild(ToXML(v.E))
		return n
	default:
		panic(fmt.Sprintf("core: ToXML: unknown expression type %T", e))
	}
}

// SerializeExpr renders an expression to its wire form.
func SerializeExpr(e Expr) []byte {
	root := ToXML(e)
	return xmltree.Append(make([]byte, 0, root.ByteSize()), root)
}

// ParseExpr parses the XML tree form back into an expression.
func ParseExpr(n *xmltree.Node) (Expr, error) {
	switch n.Label {
	case "x:tree":
		at, _ := n.Attr("at")
		kids := n.ChildElements()
		if len(kids) != 1 {
			return nil, fmt.Errorf("core: x:tree needs exactly one child, has %d", len(kids))
		}
		return &Tree{Node: xmltree.DeepCopy(kids[0]), At: netsim.PeerID(at)}, nil
	case "x:doc":
		name, ok := n.Attr("name")
		if !ok {
			return nil, fmt.Errorf("core: x:doc without name")
		}
		at, _ := n.Attr("at")
		return &Doc{Name: name, At: netsim.PeerID(at)}, nil
	case "x:query":
		at, _ := n.Attr("at")
		text := n.FirstChildElement("x:text")
		if text == nil {
			return nil, fmt.Errorf("core: x:query without x:text")
		}
		q, err := xquery.Parse(text.TextContent())
		if err != nil {
			return nil, fmt.Errorf("core: x:query body: %w", err)
		}
		share, _ := n.Attr("share")
		out := &Query{Q: q, At: netsim.PeerID(at), ShareArgs: share == "true"}
		for _, arg := range n.ChildElementsByLabel("x:arg") {
			kids := arg.ChildElements()
			if len(kids) != 1 {
				return nil, fmt.Errorf("core: x:arg needs exactly one child")
			}
			sub, err := ParseExpr(kids[0])
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, sub)
		}
		return out, nil
	case "x:queryval":
		at, _ := n.Attr("at")
		name, _ := n.Attr("name")
		text := n.FirstChildElement("x:text")
		if text == nil {
			return nil, fmt.Errorf("core: x:queryval without x:text")
		}
		q, err := xquery.Parse(text.TextContent())
		if err != nil {
			return nil, fmt.Errorf("core: x:queryval body: %w", err)
		}
		return &QueryVal{Q: q, At: netsim.PeerID(at), Name: name}, nil
	case "x:send":
		destEl := n.FirstChildElement("x:dest")
		if destEl == nil {
			return nil, fmt.Errorf("core: x:send without x:dest")
		}
		var dest Dest
		if p, ok := destEl.Attr("peer"); ok {
			dest = DestPeer{P: netsim.PeerID(p)}
		} else if d, ok := destEl.Attr("doc"); ok {
			at, _ := destEl.Attr("at")
			dest = DestDoc{Name: d, At: netsim.PeerID(at)}
		} else {
			var refs []peer.NodeRef
			for _, nd := range destEl.ChildElementsByLabel("x:node") {
				refStr, _ := nd.Attr("ref")
				r, err := peer.ParseNodeRef(refStr)
				if err != nil {
					return nil, err
				}
				refs = append(refs, r)
			}
			if len(refs) == 0 {
				return nil, fmt.Errorf("core: x:send destination is empty")
			}
			dest = DestNodes{Refs: refs}
		}
		pl := n.FirstChildElement("x:payload")
		if pl == nil || len(pl.ChildElements()) != 1 {
			return nil, fmt.Errorf("core: x:send needs exactly one payload")
		}
		payload, err := ParseExpr(pl.ChildElements()[0])
		if err != nil {
			return nil, err
		}
		return &Send{Dest: dest, Payload: payload}, nil
	case "sc":
		prov, _ := n.Attr("provider")
		svc, ok := n.Attr("service")
		if !ok {
			return nil, fmt.Errorf("core: sc without service")
		}
		out := &ServiceCall{Provider: netsim.PeerID(prov), Service: svc}
		for _, p := range n.ChildElementsByLabel("x:param") {
			kids := p.ChildElements()
			if len(kids) != 1 {
				return nil, fmt.Errorf("core: x:param needs exactly one child")
			}
			sub, err := ParseExpr(kids[0])
			if err != nil {
				return nil, err
			}
			out.Params = append(out.Params, sub)
		}
		for _, f := range n.ChildElementsByLabel("x:forw") {
			refStr, _ := f.Attr("ref")
			r, err := peer.ParseNodeRef(refStr)
			if err != nil {
				return nil, err
			}
			out.Forward = append(out.Forward, r)
		}
		return out, nil
	case "x:relay":
		viaStr, _ := n.Attr("via")
		var via []netsim.PeerID
		for _, h := range strings.Fields(viaStr) {
			via = append(via, netsim.PeerID(h))
		}
		destEl := n.FirstChildElement("x:dest")
		if destEl == nil {
			return nil, fmt.Errorf("core: x:relay without x:dest")
		}
		var dest Dest
		if p, ok := destEl.Attr("peer"); ok {
			dest = DestPeer{P: netsim.PeerID(p)}
		} else if d, ok := destEl.Attr("doc"); ok {
			at, _ := destEl.Attr("at")
			dest = DestDoc{Name: d, At: netsim.PeerID(at)}
		} else {
			var refs []peer.NodeRef
			for _, nd := range destEl.ChildElementsByLabel("x:node") {
				refStr, _ := nd.Attr("ref")
				r, err := peer.ParseNodeRef(refStr)
				if err != nil {
					return nil, err
				}
				refs = append(refs, r)
			}
			if len(refs) == 0 {
				return nil, fmt.Errorf("core: x:relay destination is empty")
			}
			dest = DestNodes{Refs: refs}
		}
		pl := n.FirstChildElement("x:payload")
		if pl == nil || len(pl.ChildElements()) != 1 {
			return nil, fmt.Errorf("core: x:relay needs exactly one payload")
		}
		payload, err := ParseExpr(pl.ChildElements()[0])
		if err != nil {
			return nil, err
		}
		return &Relay{Via: via, Dest: dest, Payload: payload}, nil
	case "x:eval":
		at, _ := n.Attr("at")
		kids := n.ChildElements()
		if len(kids) != 1 {
			return nil, fmt.Errorf("core: x:eval needs exactly one child")
		}
		sub, err := ParseExpr(kids[0])
		if err != nil {
			return nil, err
		}
		return &EvalAt{At: netsim.PeerID(at), E: sub}, nil
	default:
		return nil, fmt.Errorf("core: unknown expression element %q", n.Label)
	}
}

// ParseExprBytes parses the wire form.
func ParseExprBytes(b []byte) (Expr, error) {
	n, err := xmltree.Parse(string(b))
	if err != nil {
		return nil, fmt.Errorf("core: parsing expression: %w", err)
	}
	return ParseExpr(n)
}

// Forest (de)serialization for replies and data messages.

// The <x:forest> envelope of replies and data messages: the bytes
// Serialize writes for an x:forest element holding the trees.
const (
	forestOpen  = "<x:forest>"
	forestClose = "</x:forest>"
	emptyForest = "<x:forest/>"
)

// serializeForest wraps a forest in a <x:forest> envelope, written
// where the trees stand.
func serializeForest(nodes []*xmltree.Node) []byte {
	if len(nodes) == 0 {
		return []byte(emptyForest)
	}
	size := len(forestOpen) + len(forestClose)
	for _, n := range nodes {
		size += n.ByteSize()
	}
	b := append(make([]byte, 0, size), forestOpen...)
	for _, n := range nodes {
		b = xmltree.Append(b, n)
	}
	return append(b, forestClose...)
}

// parseForest unwraps the <x:forest> envelope of a reply, counting the
// parse in ReplyParses.
func (s *System) parseForest(b []byte) ([]*xmltree.Node, error) {
	s.replyParses.Add(1)
	root, err := xmltree.Parse(string(b))
	if err != nil {
		return nil, fmt.Errorf("core: parsing forest: %w", err)
	}
	if root.Label != "x:forest" {
		return nil, fmt.Errorf("core: expected x:forest, got %q", root.Label)
	}
	return root.Children, nil
}

// cutForest cuts a <x:forest> envelope, as serializeForest writes it,
// into the encodings of its trees without parsing them. ok is false
// when the forest holds anything xmltree.CutElements does not accept;
// System.parseForest reads those.
func cutForest(b []byte) (rows [][]byte, ok bool) {
	if string(b) == emptyForest {
		return nil, true
	}
	inner, ok := bytes.CutPrefix(b, []byte(forestOpen))
	if !ok {
		return nil, false
	}
	if inner, ok = bytes.CutSuffix(inner, []byte(forestClose)); !ok {
		return nil, false
	}
	return xmltree.CutElements(inner)
}
