// Package service defines Web services s@p of the AXML framework
// (paper §2.1): named operations provided by peers, with WSDL-style
// request/response signatures (τin, τout). Two implementations exist:
//
//   - Declarative services, whose body is an xquery query. The body is
//     visible to other peers ("the statements implementing such
//     services are visible, enabling many optimizations", §2.2) — the
//     rewrite rules (11) and (16) rely on this visibility.
//   - Builtin services, implemented by native Go functions; these model
//     the opaque Web services of the paper, which the optimizer must
//     treat as black boxes.
//
// All services are continuous in the paper's model (§2.2): a one-shot
// service is a continuous service that emits a single tree. The
// Continuous flag marks services that keep emitting after the first
// response: each call with a forward list opens a stream per target,
// which core keeps up to date from the provider's change feed with the
// incremental evaluator views use (xquery.DeltaFor), so only a body
// that evaluator can maintain may be continuous.
package service

import (
	"fmt"

	"axml/internal/netsim"
	"axml/internal/xmltree"
	"axml/internal/xquery"
	"axml/internal/xtype"
)

// BuiltinFunc is a native service implementation. It receives one
// forest per declared input and returns the response forest.
type BuiltinFunc func(args [][]*xmltree.Node) ([]*xmltree.Node, error)

// Service describes one service s@p.
type Service struct {
	// Name is s ∈ S; unique per provider.
	Name string
	// Provider is the peer p offering the service.
	Provider netsim.PeerID
	// Sig is the type signature (τin, τout); nil means untyped.
	Sig *xtype.Signature
	// Continuous marks services that emit further results when their
	// input documents evolve.
	Continuous bool
	// Body is the visible query of a declarative service (nil for
	// builtins).
	Body *xquery.Query
	// Builtin is the native implementation (nil for declarative).
	Builtin BuiltinFunc
}

// Validate checks internal consistency.
func (s *Service) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("service: empty name")
	}
	if (s.Body == nil) == (s.Builtin == nil) {
		return fmt.Errorf("service %q: exactly one of Body and Builtin must be set", s.Name)
	}
	if s.Body != nil && s.Sig != nil && len(s.Sig.In) != s.Body.Arity() {
		return fmt.Errorf("service %q: signature declares %d inputs, query takes %d",
			s.Name, len(s.Sig.In), s.Body.Arity())
	}
	if s.Continuous && s.Body != nil {
		if _, ok := xquery.NewDeltaFor(s.Body, make([][]*xmltree.Node, s.Body.Arity())); !ok {
			return fmt.Errorf("service %q: a continuous body must be one for over a doc() path, "+
				"whose other clauses read no doc() and no upward, sideways or absolute path", s.Name)
		}
	}
	return nil
}

// Declarative reports whether the service body is visible.
func (s *Service) Declarative() bool { return s.Body != nil }

// Arity returns the number of inputs the service expects.
func (s *Service) Arity() int {
	if s.Sig != nil {
		return len(s.Sig.In)
	}
	if s.Body != nil {
		return s.Body.Arity()
	}
	return 0
}

// Ref identifies a service globally: s@p (paper notation).
type Ref struct {
	Provider netsim.PeerID
	Name     string
}

func (r Ref) String() string { return r.Name + "@" + string(r.Provider) }
