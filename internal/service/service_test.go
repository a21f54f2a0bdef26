package service

import (
	"testing"

	"axml/internal/xmltree"
	"axml/internal/xquery"
	"axml/internal/xtype"
)

func TestValidate(t *testing.T) {
	q := xquery.MustParse(`param $a; $a/x`)
	cases := []struct {
		name string
		svc  *Service
		ok   bool
	}{
		{"declarative", &Service{Name: "s", Provider: "p", Body: q}, true},
		{"builtin", &Service{Name: "s", Provider: "p",
			Builtin: func([][]*xmltree.Node) ([]*xmltree.Node, error) { return nil, nil }}, true},
		{"empty name", &Service{Provider: "p", Body: q}, false},
		{"neither impl", &Service{Name: "s", Provider: "p"}, false},
		{"both impls", &Service{Name: "s", Provider: "p", Body: q,
			Builtin: func([][]*xmltree.Node) ([]*xmltree.Node, error) { return nil, nil }}, false},
		{"sig arity mismatch", &Service{Name: "s", Provider: "p", Body: q,
			Sig: &xtype.Signature{In: []*xtype.TypeRef{xtype.AnyType, xtype.AnyType}, Out: xtype.AnyType}}, false},
		{"sig arity match", &Service{Name: "s", Provider: "p", Body: q,
			Sig: &xtype.Signature{In: []*xtype.TypeRef{xtype.AnyType}, Out: xtype.AnyType}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.svc.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("Validate = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestContinuousShapes: a continuous body is refused unless the
// incremental evaluator can maintain it; the same body is a fine
// one-shot service.
func TestContinuousShapes(t *testing.T) {
	for _, c := range []struct {
		src string
		ok  bool
	}{
		{`for $i in doc("catalog")/item where $i/price < 100 return <hit>{$i/name/text()}</hit>`, true},
		{`param $max; for $i in doc("catalog")/item where $i/price < $max return $i`, true},
		{`count(doc("catalog")/item)`, false},
		{`for $i in doc("catalog")/item, $j in doc("catalog")/item return $j`, false},
		{`for $i in doc("catalog")/item where $i/price < doc("limits")/max return $i`, false},
	} {
		q := xquery.MustParse(c.src)
		if err := (&Service{Name: "s", Provider: "p", Body: q}).Validate(); err != nil {
			t.Errorf("one-shot %q: %v", c.src, err)
		}
		err := (&Service{Name: "s", Provider: "p", Body: q, Continuous: true}).Validate()
		if (err == nil) != c.ok {
			t.Errorf("continuous %q: Validate = %v, want ok=%v", c.src, err, c.ok)
		}
	}
}

func TestArityAndDeclarative(t *testing.T) {
	q := xquery.MustParse(`param $a, $b; <x/>`)
	s := &Service{Name: "s", Provider: "p", Body: q}
	if !s.Declarative() || s.Arity() != 2 {
		t.Errorf("Declarative=%v Arity=%d", s.Declarative(), s.Arity())
	}
	b := &Service{Name: "b", Provider: "p",
		Builtin: func([][]*xmltree.Node) ([]*xmltree.Node, error) { return nil, nil }}
	if b.Declarative() || b.Arity() != 0 {
		t.Errorf("builtin Declarative=%v Arity=%d", b.Declarative(), b.Arity())
	}
	sig := &Service{Name: "x", Provider: "p", Body: q,
		Sig: &xtype.Signature{In: []*xtype.TypeRef{xtype.AnyType, xtype.AnyType}}}
	if sig.Arity() != 2 {
		t.Errorf("sig arity = %d", sig.Arity())
	}
}

func TestRefString(t *testing.T) {
	r := Ref{Provider: "p2", Name: "search"}
	if r.String() != "search@p2" {
		t.Errorf("String = %q", r.String())
	}
}
