package xquery

import (
	"strings"

	"axml/internal/xmltree"
	"axml/internal/xpath"
)

// Shape names a value index over a document root: For is the path of
// child steps from the root to the candidates, Key the path from a
// candidate to the nodes whose string-values key it, element names
// joined by "/", the last one of Key "@name" for an attribute.
type Shape struct{ For, Key string }

// ValueIndex maps a string-value to the candidates whose key reaches a
// node with it, in document order, each once. Readers share it.
type ValueIndex struct {
	at    map[string]int32 // value → k: cands[k] alone if k >= 0, runs[-k-1] if not
	cands []*xmltree.Node  // every candidate, in document order
	runs  [][]*xmltree.Node
}

// Lookup returns the candidates with key value v.
func (x *ValueIndex) Lookup(v string) []*xmltree.Node {
	k, ok := x.at[v]
	switch {
	case !ok:
		return nil
	case k >= 0:
		return x.cands[k : k+1 : k+1]
	}
	return x.runs[-k-1]
}

// Build walks root once for s's index. An entry is one candidate under
// one of its key values; Build gives up (ok false) past limit entries.
func (s Shape) Build(root *xmltree.Node, limit int) (x *ValueIndex, entries int, ok bool) {
	x = &ValueIndex{cands: make([]*xmltree.Node, 0, len(root.Children))}
	eachOnPath(root, strings.Split(s.For, "/"), func(c *xmltree.Node) { x.cands = append(x.cands, c) })
	keyPath := strings.Split(s.Key, "/")
	last := keyPath[len(keyPath)-1]
	attr, isAttr := strings.CutPrefix(last, "@")
	x.at = make(map[string]int32, len(x.cands))
	var i int32 // the candidate whose keys are added
	add := func(v string) {
		switch k, seen := x.at[v]; {
		case !seen:
			x.at[v] = i
		case k == i || k < 0 && x.runs[-k-1][len(x.runs[-k-1])-1] == x.cands[i]:
			return
		case k >= 0:
			x.at[v] = -int32(len(x.runs)) - 1
			x.runs = append(x.runs, []*xmltree.Node{x.cands[k], x.cands[i]})
		default:
			x.runs[-k-1] = append(x.runs[-k-1], x.cands[i])
		}
		entries++
	}
	// A key node's string-value is XPath's: an attribute's value, an
	// element's text content.
	key := func(n *xmltree.Node) {
		for _, a := range n.Attrs {
			if isAttr && a.Name == attr {
				add(a.Value)
			}
		}
		for _, c := range n.Children {
			if !isAttr && c.Kind == xmltree.ElementNode && c.Label == last {
				add(c.TextContent())
			}
		}
	}
	for j, c := range x.cands {
		i = int32(j)
		if eachOnPath(c, keyPath[:len(keyPath)-1], key); entries > limit {
			return nil, 0, false
		}
	}
	return x, entries, true
}

// eachOnPath calls f with every element the child steps names reach
// from n, in document order.
func eachOnPath(n *xmltree.Node, names []string, f func(*xmltree.Node)) {
	if len(names) == 0 {
		f(n)
		return
	}
	for _, c := range n.Children {
		if c.Kind == xmltree.ElementNode && c.Label == names[0] {
			eachOnPath(c, names[1:], f)
		}
	}
}

// lookup is a FLWR's point lookup: its first for clause, Clauses[clause],
// ranges over doc(doc) and shape.For, no later clause rebinds its
// variable, and its where holds only if $var/shape.Key = "value" — the
// where's first operand to run if first is set.
type lookup struct {
	clause     int
	src        *Path
	doc, value string
	shape      Shape
	first      bool
}

// lookupOf recognises f's point lookup, if it has one.
func lookupOf(f *FLWR) (l lookup, ok bool) {
	s, _ := Select(f)
	if s.At < 0 || s.Source == nil || s.Where == nil || s.Rebound() {
		return l, false
	}
	l.clause, l.src = s.At, s.Source
	if l.shape.Key, l.value, l.first, ok = keyConjunct(s); !ok {
		return l, false
	}
	var steps []xpath.Step
	if l.doc, steps, ok = s.DocSteps(); !ok {
		return l, false
	}
	l.shape.For, ok = shapePath(steps, false)
	return l, ok
}

// keyConjunct finds the first of s's conjuncts that is $v/key =
// "literal", in either operand order; first reports it is the conjunct
// that runs first.
func keyConjunct(s Selection) (key, value string, first, ok bool) {
	i := 0
	for c := range s.Conjuncts() {
		if b, isBin := c.(*xpath.BinaryExpr); isBin {
			p, value, isEq := xpath.EqualsString(b)
			if isEq && p.Filter == xpath.VarRef(s.For.Var) && len(p.Preds) == 0 {
				if key, ok = shapePath(p.Steps, true); ok {
					return key, value, i == 0, true
				}
			}
		}
		i++
	}
	return "", "", false, false
}

// shapePath is steps as a Shape path: child steps by name without
// predicates, the last one an attribute step by name too when attr is
// set. Over any other step a string map cannot give XPath's answer.
func shapePath(steps []xpath.Step, attr bool) (string, bool) {
	var sb strings.Builder
	for i, st := range steps {
		lastAttr := attr && i == len(steps)-1 && st.Axis == xpath.AxisAttribute
		if st.Test.Kind != xpath.TestName || len(st.Preds) != 0 || st.Axis != xpath.AxisChild && !lastAttr {
			return "", false
		}
		if i > 0 {
			sb.WriteByte('/')
		}
		if lastAttr {
			sb.WriteByte('@')
		}
		sb.WriteString(st.Test.Name)
	}
	return sb.String(), len(steps) > 0
}
