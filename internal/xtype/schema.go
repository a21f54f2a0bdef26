package xtype

import (
	"fmt"
	"strings"

	"axml/internal/xmltree"
)

// AttrDecl declares an attribute on an element type.
type AttrDecl struct {
	Name     string
	Required bool
}

// ElementDecl declares one element type: its content model over child
// element labels, whether character data is allowed between children
// (mixed content / #PCDATA), and its attributes.
type ElementDecl struct {
	Name      string
	Content   ContentModel
	AllowText bool
	Attrs     []AttrDecl

	auto *Automaton // compiled lazily by Schema.compile
}

// Schema is a set of element declarations with a distinguished root
// label. It corresponds to one type τ ∈ Θ of the paper.
type Schema struct {
	Root     string
	Elements map[string]*ElementDecl
}

// ParseSchema parses the compact schema syntax, one declaration per
// line (blank lines and '#' comments ignored):
//
//	root catalog
//	catalog := (item*, note?)
//	item := (name, price?) @id @cat?
//	name := #PCDATA
//	price := #PCDATA
//	note := MIXED
//
// Content models: DTD syntax (see ParseContentModel), plus the leaf
// forms "#PCDATA" (text only) and "MIXED" (text and any children).
// Attribute declarations follow the model: @name is required, @name?
// optional.
func ParseSchema(src string) (*Schema, error) {
	s := &Schema{Elements: map[string]*ElementDecl{}}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "#PCDATA") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "root "); ok {
			s.Root = strings.TrimSpace(rest)
			continue
		}
		name, def, ok := strings.Cut(line, ":=")
		if !ok {
			return nil, fmt.Errorf("xtype: line %d: expected 'name := model', got %q", lineNo+1, line)
		}
		name = strings.TrimSpace(name)
		def = strings.TrimSpace(def)
		if name == "" {
			return nil, fmt.Errorf("xtype: line %d: empty element name", lineNo+1)
		}
		if _, dup := s.Elements[name]; dup {
			return nil, fmt.Errorf("xtype: line %d: duplicate declaration of %q", lineNo+1, name)
		}
		decl := &ElementDecl{Name: name}
		// Split off attribute declarations.
		model := def
		if i := strings.Index(def, "@"); i >= 0 {
			model = strings.TrimSpace(def[:i])
			for _, tok := range strings.Fields(def[i:]) {
				if !strings.HasPrefix(tok, "@") {
					return nil, fmt.Errorf("xtype: line %d: expected @attr, got %q", lineNo+1, tok)
				}
				a := AttrDecl{Name: strings.TrimPrefix(tok, "@"), Required: true}
				if strings.HasSuffix(a.Name, "?") {
					a.Name = strings.TrimSuffix(a.Name, "?")
					a.Required = false
				}
				if a.Name == "" {
					return nil, fmt.Errorf("xtype: line %d: empty attribute name", lineNo+1)
				}
				decl.Attrs = append(decl.Attrs, a)
			}
		}
		switch model {
		case "#PCDATA":
			decl.AllowText = true
			decl.Content = CMEmpty{}
		case "MIXED":
			decl.AllowText = true
			decl.Content = CMAny{}
		case "":
			return nil, fmt.Errorf("xtype: line %d: missing content model", lineNo+1)
		default:
			cm, err := ParseContentModel(model)
			if err != nil {
				return nil, fmt.Errorf("xtype: line %d: %w", lineNo+1, err)
			}
			decl.Content = cm
		}
		s.Elements[name] = decl
	}
	if s.Root == "" {
		return nil, fmt.Errorf("xtype: schema has no 'root' declaration")
	}
	if _, ok := s.Elements[s.Root]; !ok {
		return nil, fmt.Errorf("xtype: root element %q is not declared", s.Root)
	}
	return s, nil
}

// MustParseSchema is ParseSchema that panics on error.
func MustParseSchema(src string) *Schema {
	s, err := ParseSchema(src)
	if err != nil {
		panic(err)
	}
	return s
}

// ValidationError describes one validation failure at the element
// Path leads to from the root (/label/label).
type ValidationError struct {
	Path string
	Msg  string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("xtype: %s: %s", e.Path, e.Msg)
}

// Validate checks the tree against the schema, starting at the root
// label. It returns all violations found (nil means valid).
func (s *Schema) Validate(root *xmltree.Node) []error {
	var errs []error
	if root.Kind != xmltree.ElementNode {
		return []error{&ValidationError{Path: "/", Msg: "root is not an element"}}
	}
	path := "/" + root.Label
	if root.Label != s.Root {
		errs = append(errs, &ValidationError{Path: path,
			Msg: fmt.Sprintf("root label %q, schema expects %q", root.Label, s.Root)})
	}
	s.validateElement(root, path, &errs)
	return errs
}

// Valid reports whether the tree validates with no errors.
func (s *Schema) Valid(root *xmltree.Node) bool { return len(s.Validate(root)) == 0 }

func (s *Schema) validateElement(n *xmltree.Node, path string, errs *[]error) {
	decl, ok := s.Elements[n.Label]
	if !ok {
		*errs = append(*errs, &ValidationError{Path: path,
			Msg: fmt.Sprintf("element %q is not declared", n.Label)})
		return
	}
	if decl.auto == nil {
		decl.auto = CompileModel(decl.Content)
	}
	// Attribute checks.
	declared := map[string]bool{}
	for _, a := range decl.Attrs {
		declared[a.Name] = true
		if a.Required {
			if _, present := n.Attr(a.Name); !present {
				*errs = append(*errs, &ValidationError{Path: path,
					Msg: fmt.Sprintf("missing required attribute %q", a.Name)})
			}
		}
	}
	for _, a := range n.Attrs {
		if !declared[a.Name] {
			*errs = append(*errs, &ValidationError{Path: path,
				Msg: fmt.Sprintf("undeclared attribute %q", a.Name)})
		}
	}
	// Content checks.
	var labels []string
	for _, c := range n.Children {
		switch c.Kind {
		case xmltree.ElementNode:
			labels = append(labels, c.Label)
		case xmltree.TextNode:
			if !decl.AllowText && strings.TrimSpace(c.Text) != "" {
				*errs = append(*errs, &ValidationError{Path: path,
					Msg: fmt.Sprintf("element %q does not allow text content", n.Label)})
			}
		}
	}
	if !decl.auto.Match(labels) {
		*errs = append(*errs, &ValidationError{Path: path,
			Msg: fmt.Sprintf("children %v do not match content model %s", labels, decl.Content)})
	}
	// Recurse into declared children; undeclared ones are reported by
	// their own validateElement call.
	if _, isAny := decl.Content.(CMAny); isAny && !allDeclared(s, n) {
		// Under ANY, children may be undeclared; skip recursion for those.
		for _, c := range n.Children {
			if c.Kind == xmltree.ElementNode {
				if _, ok := s.Elements[c.Label]; ok {
					s.validateElement(c, path+"/"+c.Label, errs)
				}
			}
		}
		return
	}
	for _, c := range n.Children {
		if c.Kind == xmltree.ElementNode {
			s.validateElement(c, path+"/"+c.Label, errs)
		}
	}
}

func allDeclared(s *Schema, n *xmltree.Node) bool {
	for _, c := range n.Children {
		if c.Kind == xmltree.ElementNode {
			if _, ok := s.Elements[c.Label]; !ok {
				return false
			}
		}
	}
	return true
}

// AnyType is the wildcard type: every tree conforms. It is the default
// signature component for services that do not declare types.
var AnyType = &TypeRef{}

// TypeRef names a type for service signatures: either the wildcard
// (zero value) or a schema.
type TypeRef struct {
	Schema *Schema
}

// Conforms reports whether the tree conforms to the type.
func (t *TypeRef) Conforms(n *xmltree.Node) bool {
	if t == nil || t.Schema == nil {
		return true
	}
	return t.Schema.Valid(n)
}

func (t *TypeRef) String() string {
	if t == nil || t.Schema == nil {
		return "xs:any"
	}
	return t.Schema.Root
}

// Signature is a service type signature (τin, τout) with τin ∈ Θⁿ
// (paper §2.1). An empty In means the service takes no parameters.
type Signature struct {
	In  []*TypeRef
	Out *TypeRef
}

// CheckInput validates a call's arguments, one forest per input,
// against τin (arity and per-argument conformance). A forest of one
// tree is checked as that tree, any other as an x:args element holding
// it.
func (sig *Signature) CheckInput(args [][]*xmltree.Node) error {
	if sig == nil {
		return nil
	}
	if len(sig.In) != len(args) {
		return fmt.Errorf("xtype: arity mismatch: signature has %d inputs, call has %d", len(sig.In), len(args))
	}
	for i, t := range sig.In {
		var arg *xmltree.Node
		if len(args[i]) == 1 {
			arg = args[i][0]
		} else {
			arg = xmltree.E("x:args")
			for _, n := range args[i] {
				arg.AppendChild(n)
			}
		}
		if !t.Conforms(arg) {
			return fmt.Errorf("xtype: argument %d does not conform to %s", i+1, t)
		}
	}
	return nil
}

func (sig *Signature) String() string {
	if sig == nil {
		return "(...) -> xs:any"
	}
	ins := make([]string, len(sig.In))
	for i, t := range sig.In {
		ins[i] = t.String()
	}
	return "(" + strings.Join(ins, ", ") + ") -> " + sig.Out.String()
}
