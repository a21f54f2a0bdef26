package xpath

import (
	"math"
	"strconv"
	"strings"

	"axml/internal/xmltree"
)

// Value is the XPath 1.0 value domain: node-set, boolean, number, string.
type Value interface {
	// Bool converts the value per the boolean() rules.
	Bool() bool
	// Number converts the value per the number() rules.
	Number() float64
	// Str converts the value per the string() rules.
	Str() string
}

// NodeSet is an ordered, duplicate-free set of nodes (first-visit order
// acts as document order in this engine).
type NodeSet []*xmltree.Node

// Bool reports whether the node-set is non-empty.
func (ns NodeSet) Bool() bool { return len(ns) > 0 }

// Number converts the string-value of the first node.
func (ns NodeSet) Number() float64 { return stringToNumber(ns.Str()) }

// Str returns the string-value of the first node, or "".
func (ns NodeSet) Str() string {
	if len(ns) == 0 {
		return ""
	}
	return nodeStringValue(ns[0])
}

// Boolean is an XPath boolean.
type Boolean bool

func (b Boolean) Bool() bool { return bool(b) }

// Number converts true→1, false→0.
func (b Boolean) Number() float64 {
	if b {
		return 1
	}
	return 0
}

func (b Boolean) Str() string {
	if b {
		return "true"
	}
	return "false"
}

// Number is an XPath number (IEEE 754 double).
type Number float64

// Bool reports whether the number is neither zero nor NaN.
func (n Number) Bool() bool { return float64(n) != 0 && !math.IsNaN(float64(n)) }

func (n Number) Number() float64 { return float64(n) }

func (n Number) Str() string { return formatNumber(float64(n)) }

// String is an XPath string.
type String string

// Bool reports whether the string is non-empty.
func (s String) Bool() bool { return len(s) > 0 }

func (s String) Number() float64 { return stringToNumber(string(s)) }

func (s String) Str() string { return string(s) }

// nodeStringValue implements the XPath string-value of a node.
func nodeStringValue(n *xmltree.Node) string { return n.TextContent() }

func stringToNumber(s string) float64 {
	s = strings.TrimSpace(s)
	if s == "" {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// formatNumber renders a float per XPath string() rules: integers have
// no decimal point, NaN is "NaN", infinities are "Infinity".
func formatNumber(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatInt(int64(f), 10)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

// operand is one side of a comparison: a node-set, or an atomic value
// held unboxed so that comparing a node's string-value against it
// allocates nothing.
type operand struct {
	kind opKind
	ns   NodeSet
	s    string
	f    float64
	b    bool
}

type opKind uint8

const (
	opString opKind = iota
	opNumber
	opBool
	opNodeSet
)

func operandOf(v Value) operand {
	switch x := v.(type) {
	case NodeSet:
		return operand{kind: opNodeSet, ns: x}
	case Boolean:
		return operand{kind: opBool, b: bool(x)}
	case Number:
		return operand{kind: opNumber, f: float64(x)}
	default:
		return operand{kind: opString, s: v.Str()}
	}
}

func (o operand) number() float64 {
	switch o.kind {
	case opNumber:
		return o.f
	case opBool:
		return Boolean(o.b).Number()
	default:
		return stringToNumber(o.s)
	}
}

func (o operand) str() string {
	switch o.kind {
	case opNumber:
		return formatNumber(o.f)
	case opBool:
		return Boolean(o.b).Str()
	default:
		return o.s
	}
}

func (o operand) boolean() bool {
	switch o.kind {
	case opNumber:
		return Number(o.f).Bool()
	case opBool:
		return o.b
	default:
		return len(o.s) > 0
	}
}

// compare implements XPath comparison semantics: the existential rules
// for node-sets (each node stands for its string-value), then the
// atomic comparison.
func compare(op string, a, b operand) bool {
	if a.kind == opNodeSet {
		for _, x := range a.ns {
			if compare(op, operand{kind: opString, s: nodeStringValue(x)}, b) {
				return true
			}
		}
		return false
	}
	if b.kind == opNodeSet {
		for _, y := range b.ns {
			if compare(op, a, operand{kind: opString, s: nodeStringValue(y)}) {
				return true
			}
		}
		return false
	}
	switch op {
	case "=", "!=":
		var eq bool
		switch {
		case a.kind == opBool || b.kind == opBool:
			eq = a.boolean() == b.boolean()
		case a.kind == opNumber || b.kind == opNumber:
			eq = a.number() == b.number()
		default:
			eq = a.str() == b.str()
		}
		return eq == (op == "=")
	case "<":
		return a.number() < b.number()
	case "<=":
		return a.number() <= b.number()
	case ">":
		return a.number() > b.number()
	case ">=":
		return a.number() >= b.number()
	}
	return false
}
