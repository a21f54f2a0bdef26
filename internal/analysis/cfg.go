package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
)

// cfg.go builds a per-function control-flow graph over go/ast: basic
// blocks connected by branch, loop, and abnormal-exit edges, precise
// enough for the forward/backward dataflow problems in dataflow.go.
// PR 7's analyzers tracked coverage lexically (spanend's "dominance",
// lockedcall's branch-local held sets); the CFG replaces that with
// execution order, which is what removes their documented
// false-negative classes (conditional lock, End in one branch only).
//
// Granularity: a Block holds statements and branch-condition
// expressions in evaluation order. Function literals are opaque nodes —
// each literal body gets its own CFG when an analyzer wants one.
// Deferred calls are collected on the CFG (they run at every exit, in
// reverse order) rather than modeled as edges. A call the client
// declares terminal (panic, os.Exit, t.Fatal — see BuildCFG's isTerm)
// ends its block with no successors: such paths never reach Exit, so
// must-style analyses do not demand cleanup on them.

// A Block is a maximal straight-line sequence of nodes.
type Block struct {
	Index int
	Kind  string     // descriptive label: "entry", "if.then", "for.head", ...
	Nodes []ast.Node // statements and branch conditions, evaluation order

	Succs []*Block
	Preds []*Block

	// For a block that ends by testing Cond, TrueSucc and FalseSucc
	// are the corresponding successors (also present in Succs). Edge
	// transfer functions use them for condition-sensitive facts
	// (closeguard's err-guard exemption).
	Cond      ast.Expr
	TrueSucc  *Block
	FalseSucc *Block
}

func (b *Block) String() string { return fmt.Sprintf("b%d(%s)", b.Index, b.Kind) }

// A CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Exit   *Block // every normal exit (return or fall-off) leads here
	Blocks []*Block
	Defers []*ast.DeferStmt // lexical order encountered

	reachable map[*Block]bool
}

// Reachable reports whether b can execute at all (is reachable from
// Entry). Dead blocks still exist so every statement has a home, but
// dataflow results there are meaningless.
func (c *CFG) Reachable(b *Block) bool { return c.reachable[b] }

// ReachableFrom returns the set of blocks reachable from start
// (inclusive), following successor edges.
func (c *CFG) ReachableFrom(start *Block) map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(b *Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(start)
	return seen
}

// BuildCFG constructs the CFG of body. isTerm, when non-nil, reports
// whether a call expression never returns (panic-like); such calls end
// their block without successors. A nil isTerm treats only the builtin
// panic as terminal.
func BuildCFG(body *ast.BlockStmt, isTerm func(*ast.CallExpr) bool) *CFG {
	if isTerm == nil {
		isTerm = func(call *ast.CallExpr) bool {
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			return ok && id.Name == "panic"
		}
	}
	b := &cfgBuilder{
		cfg:    &CFG{},
		isTerm: isTerm,
		labels: map[string]*labelTargets{},
		lblock: map[string]*Block{},
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.cur = b.cfg.Entry
	b.stmts(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit) // fall off the end
	}
	for _, g := range b.gotos {
		if target, ok := b.lblock[g.label]; ok {
			b.edge(g.from, target)
		}
	}
	for _, blk := range b.cfg.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	b.cfg.reachable = b.cfg.ReachableFrom(b.cfg.Entry)
	return b.cfg
}

type labelTargets struct {
	brk, cont *Block
}

type gotoFixup struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block // nil after a terminator until the next block starts
	isTerm func(*ast.CallExpr) bool

	// break/continue target stacks; the innermost target is last.
	breaks    []*Block
	continues []*Block
	labels    map[string]*labelTargets // L: for/switch/select targets
	lblock    map[string]*Block        // goto targets
	gotos     []gotoFixup
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// add appends a node to the current block, starting a fresh (dead)
// block when the previous statement terminated control flow — the
// nodes of unreachable code still need a home.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmts(st.List)
	case *ast.IfStmt:
		b.ifStmt(st)
	case *ast.ForStmt:
		b.forStmt(st, label)
	case *ast.RangeStmt:
		b.rangeStmt(st, label)
	case *ast.SwitchStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		if st.Tag != nil {
			b.add(st.Tag)
		}
		b.switchBody(st.Body, label, true)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		b.add(st.Assign)
		b.switchBody(st.Body, label, true)
	case *ast.SelectStmt:
		b.selectStmt(st, label)
	case *ast.LabeledStmt:
		b.labeledStmt(st)
	case *ast.BranchStmt:
		b.branchStmt(st)
	case *ast.ReturnStmt:
		b.add(st)
		if b.cur != nil {
			b.edge(b.cur, b.cfg.Exit)
		}
		b.cur = nil
	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, st)
		b.add(st)
	case *ast.ExprStmt:
		b.add(st)
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok && b.isTerm(call) {
			b.cur = nil // panic-like: no successors
		}
	case *ast.EmptyStmt:
		// nothing
	default:
		// DeclStmt, AssignStmt, SendStmt, IncDecStmt, GoStmt, ...
		b.add(s)
	}
}

func (b *cfgBuilder) ifStmt(st *ast.IfStmt) {
	if st.Init != nil {
		b.add(st.Init)
	}
	b.add(st.Cond)
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
	cond := b.cur
	cond.Cond = st.Cond

	then := b.newBlock("if.then")
	b.edge(cond, then)
	cond.TrueSucc = then
	b.cur = then
	b.stmts(st.Body.List)
	thenEnd := b.cur

	var elseEnd *Block
	hasElse := st.Else != nil
	if hasElse {
		els := b.newBlock("if.else")
		b.edge(cond, els)
		cond.FalseSucc = els
		b.cur = els
		b.stmt(st.Else, "")
		elseEnd = b.cur
	}

	after := b.newBlock("if.done")
	if thenEnd != nil {
		b.edge(thenEnd, after)
	}
	if hasElse {
		if elseEnd != nil {
			b.edge(elseEnd, after)
		}
	} else {
		b.edge(cond, after)
		cond.FalseSucc = after
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(st *ast.ForStmt, label string) {
	if st.Init != nil {
		b.add(st.Init)
	}
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
	head := b.newBlock("for.head")
	b.edge(b.cur, head)
	if st.Cond != nil {
		head.Nodes = append(head.Nodes, st.Cond)
		head.Cond = st.Cond
	}
	after := b.newBlock("for.done")
	contTarget := head
	var post *Block
	if st.Post != nil {
		post = b.newBlock("for.post")
		post.Nodes = append(post.Nodes, st.Post)
		b.edge(post, head)
		contTarget = post
	}
	body := b.newBlock("for.body")
	b.edge(head, body)
	if st.Cond != nil {
		head.TrueSucc = body
		head.FalseSucc = after
		b.edge(head, after)
	}

	b.pushLoop(label, after, contTarget)
	b.cur = body
	b.stmts(st.Body.List)
	if b.cur != nil {
		b.edge(b.cur, contTarget)
	}
	b.popLoop(label)
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(st *ast.RangeStmt, label string) {
	b.add(st.X)
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
	head := b.newBlock("range.head")
	b.edge(b.cur, head)
	// Model the per-iteration key/value assignment as a head node.
	if st.Key != nil {
		head.Nodes = append(head.Nodes, st.Key)
	}
	if st.Value != nil {
		head.Nodes = append(head.Nodes, st.Value)
	}
	after := b.newBlock("range.done")
	body := b.newBlock("range.body")
	b.edge(head, body)
	b.edge(head, after)

	b.pushLoop(label, after, head)
	b.cur = body
	b.stmts(st.Body.List)
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.popLoop(label)
	b.cur = after
}

// switchBody wires the case clauses of a switch/type-switch. Each
// clause body is a successor of the head block; fallthrough connects a
// clause end to the next clause's body. Without a default clause the
// head also flows directly to after.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, label string, exhaustiveWithoutDefault bool) {
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
	head := b.cur
	after := b.newBlock("switch.done")

	var clauses []*ast.CaseClause
	for _, raw := range body.List {
		if cc, ok := raw.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		bodies[i] = b.newBlock("case")
		for _, e := range cc.List {
			bodies[i].Nodes = append(bodies[i].Nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(head, bodies[i])
	}
	if !hasDefault {
		b.edge(head, after)
	}

	b.pushSwitch(label, after)
	for i, cc := range clauses {
		b.cur = bodies[i]
		fellThrough := false
		for _, s := range cc.Body {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				if i+1 < len(bodies) && b.cur != nil {
					b.edge(b.cur, bodies[i+1])
					fellThrough = true
				}
				b.cur = nil
				continue
			}
			b.stmt(s, "")
		}
		if b.cur != nil && !fellThrough {
			b.edge(b.cur, after)
		}
	}
	b.popSwitch(label)
	b.cur = after
}

func (b *cfgBuilder) selectStmt(st *ast.SelectStmt, label string) {
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
	head := b.cur
	after := b.newBlock("select.done")

	b.pushSwitch(label, after)
	for _, raw := range st.Body.List {
		cc, ok := raw.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock("comm")
		b.edge(head, blk)
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		b.cur = blk
		b.stmts(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.popSwitch(label)
	// A select with no cases blocks forever; with cases, control
	// continues at after via the per-clause edges only.
	b.cur = after
}

func (b *cfgBuilder) labeledStmt(st *ast.LabeledStmt) {
	name := st.Label.Name
	lb := b.newBlock("label." + name)
	if b.cur != nil {
		b.edge(b.cur, lb)
	}
	b.cur = lb
	b.lblock[name] = lb
	switch st.Stmt.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.stmt(st.Stmt, name)
	default:
		b.stmt(st.Stmt, "")
	}
	delete(b.labels, name)
}

func (b *cfgBuilder) branchStmt(st *ast.BranchStmt) {
	b.add(st)
	if b.cur == nil {
		return
	}
	switch st.Tok {
	case token.BREAK:
		var target *Block
		if st.Label != nil {
			if lt := b.labels[st.Label.Name]; lt != nil {
				target = lt.brk
			}
		} else if len(b.breaks) > 0 {
			target = b.breaks[len(b.breaks)-1]
		}
		if target != nil {
			b.edge(b.cur, target)
		}
		b.cur = nil
	case token.CONTINUE:
		var target *Block
		if st.Label != nil {
			if lt := b.labels[st.Label.Name]; lt != nil {
				target = lt.cont
			}
		} else if len(b.continues) > 0 {
			target = b.continues[len(b.continues)-1]
		}
		if target != nil {
			b.edge(b.cur, target)
		}
		b.cur = nil
	case token.GOTO:
		if st.Label != nil {
			b.gotos = append(b.gotos, gotoFixup{from: b.cur, label: st.Label.Name})
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// handled in switchBody; a stray fallthrough terminates
		b.cur = nil
	}
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	if label != "" {
		b.labels[label] = &labelTargets{brk: brk, cont: cont}
	}
}

func (b *cfgBuilder) popLoop(label string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *cfgBuilder) pushSwitch(label string, brk *Block) {
	b.breaks = append(b.breaks, brk)
	if label != "" {
		b.labels[label] = &labelTargets{brk: brk}
	}
}

func (b *cfgBuilder) popSwitch(label string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
}
