package opt

import (
	"fmt"
	"strconv"

	"axml/internal/core"
	"axml/internal/netsim"
	"axml/internal/xmltree"
	"axml/internal/xquery"
)

// memo is what one estimator has learned about the plans it priced: a
// structural key per expression, the rendering of every query text and
// literal tree it met, and the estimate of every sub-plan at every site
// it was priced at. Rewrites clone the expression they change, so two
// candidates share sub-plans by structure, not by pointer; keying by
// structure is what lets a search price each shared sub-plan once.
type memo struct {
	keys  map[core.Expr]string
	texts map[any]string // query text or serialized literal tree, by pointer
	ids   map[string]int // interned texts
	ests  map[estKey]estimated
	wire  map[string]float64 // serialized size of a sub-plan, by key
	// priced counts the estimates computed rather than remembered.
	priced int
}

type estKey struct {
	at  netsim.PeerID
	key string
}

type estimated struct {
	est Estimate
	err error
}

func newMemo() *memo {
	return &memo{
		keys:  map[core.Expr]string{},
		texts: map[any]string{},
		ids:   map[string]int{},
		ests:  map[estKey]estimated{},
		wire:  map[string]float64{},
	}
}

// text renders a query (or serializes a literal tree) once per pointer.
func (m *memo) text(v any) string {
	if s, ok := m.texts[v]; ok {
		return s
	}
	var s string
	switch v := v.(type) {
	case *xquery.Query:
		s = v.String()
	case *xmltree.Node:
		s = xmltree.Serialize(v)
	}
	m.texts[v] = s
	return s
}

// key returns e's structural key: two expressions have the same key
// exactly when they serialize to the same plan. Query texts and literal
// trees enter it as small integers, interned by their rendering, so a
// key is a few bytes per constructor however long the query.
func (m *memo) key(e core.Expr) string {
	if k, ok := m.keys[e]; ok {
		return k
	}
	k := string(m.appendKey(nil, e))
	m.keys[e] = k
	return k
}

func (m *memo) appendKey(b []byte, e core.Expr) []byte {
	switch v := e.(type) {
	case *core.Tree:
		b = m.appendID(append(b, 't'), v.Node)
		return appendStr(b, string(v.At))
	case *core.Doc:
		return appendStr(appendStr(append(b, 'd'), v.Name), string(v.At))
	case *core.Query:
		b = appendStr(m.appendID(append(b, 'q'), v.Q), string(v.At))
		if v.ShareArgs {
			b = append(b, '=')
		}
		return append(m.appendKeys(append(b, '('), v.Args), ')')
	case *core.QueryVal:
		b = m.appendID(append(b, 'v'), v.Q)
		return appendStr(appendStr(b, string(v.At)), v.Name)
	case *core.Send:
		b = appendDest(append(b, 's'), v.Dest)
		return append(m.appendKeys(append(b, '('), []core.Expr{v.Payload}), ')')
	case *core.Relay:
		b = strconv.AppendInt(append(b, 'r'), int64(len(v.Via)), 10)
		for _, p := range v.Via {
			b = appendStr(b, string(p))
		}
		b = appendDest(b, v.Dest)
		return append(m.appendKeys(append(b, '('), []core.Expr{v.Payload}), ')')
	case *core.ServiceCall:
		b = appendStr(appendStr(append(b, 'c'), string(v.Provider)), v.Service)
		b = append(m.appendKeys(append(b, '('), v.Params), ')')
		for _, f := range v.Forward {
			b = appendStr(b, f.String())
		}
		return b
	case *core.EvalAt:
		b = appendStr(append(b, 'e'), string(v.At))
		return append(m.appendKeys(append(b, '('), []core.Expr{v.E}), ')')
	default:
		// A constructor the estimator cannot price keys by identity.
		return fmt.Appendf(b, "?%p", e)
	}
}

func (m *memo) appendKeys(b []byte, es []core.Expr) []byte {
	for _, e := range es {
		b = append(b, m.key(e)...)
	}
	return b
}

// appendID appends the interned number of v's rendering.
func (m *memo) appendID(b []byte, v any) []byte {
	s := m.text(v)
	id, ok := m.ids[s]
	if !ok {
		id = len(m.ids)
		m.ids[s] = id
	}
	return append(strconv.AppendInt(b, int64(id), 10), ';')
}

// appendStr appends s length-prefixed, so no name can be mistaken for
// the constructor that follows it.
func appendStr(b []byte, s string) []byte {
	return append(append(strconv.AppendInt(b, int64(len(s)), 10), ':'), s...)
}

func appendDest(b []byte, d core.Dest) []byte {
	switch d := d.(type) {
	case core.DestPeer:
		return appendStr(append(b, 'P'), string(d.P))
	case core.DestDoc:
		return appendStr(appendStr(append(b, 'D'), d.Name), string(d.At))
	case core.DestNodes:
		b = strconv.AppendInt(append(b, 'N'), int64(len(d.Refs)), 10)
		for _, r := range d.Refs {
			b = appendStr(b, r.String())
		}
	}
	return b
}

// wireSize is the serialized size of e, the bytes a delegation ships;
// taken once per structure.
func (m *memo) wireSize(e core.Expr) float64 {
	k := m.key(e)
	if s, ok := m.wire[k]; ok {
		return s
	}
	s := float64(len(core.SerializeExpr(e)))
	m.wire[k] = s
	return s
}
