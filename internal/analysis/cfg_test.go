package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses `src` (a function declaration) and returns its body.
func parseBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return fd.Body
		}
	}
	t.Fatal("no function in src")
	return nil
}

// blockCalling returns the block whose nodes reference ident `name`.
func blockCalling(c *CFG, name string) *Block {
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			found := false
			ast.Inspect(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Name == name {
					found = true
				}
				return true
			})
			if found {
				return b
			}
		}
	}
	return nil
}

// dump renders the CFG for failure messages: one line per block with
// its kind and successor indexes.
func dump(c *CFG) string {
	var sb strings.Builder
	for _, b := range c.Blocks {
		fmt.Fprintf(&sb, "b%d %s ->", b.Index, b.Kind)
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " b%d", s.Index)
		}
		if !c.Reachable(b) {
			sb.WriteString(" [dead]")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func hasSucc(b *Block, s *Block) bool {
	for _, x := range b.Succs {
		if x == s {
			return true
		}
	}
	return false
}

func TestCFGIfElse(t *testing.T) {
	c := BuildCFG(parseBody(t, `func f(c bool) { if c { a() } else { b() }; d() }`), nil)
	cond := blockCalling(c, "c")
	then, els, after := blockCalling(c, "a"), blockCalling(c, "b"), blockCalling(c, "d")
	if cond == nil || then == nil || els == nil || after == nil {
		t.Fatalf("missing blocks:\n%s", dump(c))
	}
	if cond.Cond == nil || cond.TrueSucc != then || cond.FalseSucc != els {
		t.Errorf("cond block not wired: true=%v false=%v", cond.TrueSucc, cond.FalseSucc)
	}
	if !hasSucc(then, after) || !hasSucc(els, after) {
		t.Errorf("branches do not merge at d():\n%s", dump(c))
	}
	if !c.Reachable(c.Exit) || !hasSucc(after, c.Exit) {
		t.Errorf("fall-off edge to Exit missing:\n%s", dump(c))
	}
}

func TestCFGIfWithoutElse(t *testing.T) {
	c := BuildCFG(parseBody(t, `func f(c bool) { if c { a() }; d() }`), nil)
	cond, after := blockCalling(c, "c"), blockCalling(c, "d")
	if cond.FalseSucc != after {
		t.Errorf("false edge should skip to the merge:\n%s", dump(c))
	}
}

func TestCFGForLoop(t *testing.T) {
	c := BuildCFG(parseBody(t, `func f(n int) { for i := 0; i < n; i++ { body() }; done() }`), nil)
	head := blockCalling(c, "n") // the condition i < n lives in the head
	body, after := blockCalling(c, "body"), blockCalling(c, "done")
	if head == nil || body == nil || after == nil {
		t.Fatalf("missing blocks:\n%s", dump(c))
	}
	if head.TrueSucc != body || head.FalseSucc != after {
		t.Errorf("loop head not wired: true=%v false=%v", head.TrueSucc, head.FalseSucc)
	}
	post := blockCalling(c, "i") // i++ lands in the post block (head also refs i; ensure back edge exists)
	_ = post
	backEdge := false
	for _, b := range c.Blocks {
		if b != head && hasSucc(b, head) && c.Reachable(b) {
			backEdge = true
		}
	}
	if !backEdge {
		t.Errorf("no back edge to loop head:\n%s", dump(c))
	}
}

func TestCFGCondlessLoopNeedsBreak(t *testing.T) {
	// Without a break, code after `for {}` is unreachable.
	c := BuildCFG(parseBody(t, `func f() { for { spin() }; done() }`), nil)
	after := blockCalling(c, "done")
	if c.Reachable(after) {
		t.Errorf("done() should be unreachable after for{}:\n%s", dump(c))
	}

	c = BuildCFG(parseBody(t, `func f(c bool) { for { if c { break }; spin() }; done() }`), nil)
	after = blockCalling(c, "done")
	if !c.Reachable(after) {
		t.Errorf("break should make done() reachable:\n%s", dump(c))
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	c := BuildCFG(parseBody(t, `func f() {
outer:
	for {
		for {
			break outer
		}
	}
	done()
}`), nil)
	if after := blockCalling(c, "done"); !c.Reachable(after) {
		t.Errorf("labeled break should reach done():\n%s", dump(c))
	}
	if !c.Reachable(c.Exit) {
		t.Errorf("exit unreachable:\n%s", dump(c))
	}
}

func TestCFGLabeledContinue(t *testing.T) {
	// continue outer skips the inner loop's spin() on that path.
	c := BuildCFG(parseBody(t, `func f(c bool) {
outer:
	for next() {
		for {
			if c {
				continue outer
			}
			spin()
		}
	}
	done()
}`), nil)
	cont := blockCalling(c, "c")
	if cont == nil {
		t.Fatalf("missing cond block:\n%s", dump(c))
	}
	if !c.Reachable(blockCalling(c, "done")) {
		t.Errorf("done() unreachable:\n%s", dump(c))
	}
}

func TestCFGDefersCollected(t *testing.T) {
	c := BuildCFG(parseBody(t, `func f() { defer a(); defer b(); work() }`), nil)
	if len(c.Defers) != 2 {
		t.Fatalf("got %d defers, want 2", len(c.Defers))
	}
}

func TestCFGTerminalCall(t *testing.T) {
	c := BuildCFG(parseBody(t, `func f(c bool) { if c { panic("x") }; d() }`), nil)
	pb := blockCalling(c, "panic")
	if len(pb.Succs) != 0 {
		t.Errorf("panic block has successors %v:\n%s", pb.Succs, dump(c))
	}
	if !c.Reachable(blockCalling(c, "d")) {
		t.Errorf("d() should stay reachable via the false branch:\n%s", dump(c))
	}
}

func TestCFGGoto(t *testing.T) {
	c := BuildCFG(parseBody(t, `func f(c bool) {
	if c {
		goto out
	}
	skipped()
out:
	done()
}`), nil)
	sk, dn := blockCalling(c, "skipped"), blockCalling(c, "done")
	if !c.Reachable(sk) || !c.Reachable(dn) {
		t.Fatalf("both paths should be reachable:\n%s", dump(c))
	}
	// The goto block must edge directly to the label block.
	gotoBlk := blockCalling(c, "out")
	if gotoBlk == nil || !hasSucc(gotoBlk, dn) {
		t.Errorf("goto edge to label missing:\n%s", dump(c))
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	c := BuildCFG(parseBody(t, `func f(k int) {
	switch k {
	case 1:
		a()
		fallthrough
	case 2:
		b()
	}
	done()
}`), nil)
	ab, bb := blockCalling(c, "a"), blockCalling(c, "b")
	if !hasSucc(ab, bb) {
		t.Errorf("fallthrough edge a->b missing:\n%s", dump(c))
	}
	// No default: the head must flow to done() directly too.
	if !c.Reachable(blockCalling(c, "done")) {
		t.Errorf("done unreachable:\n%s", dump(c))
	}
}

func TestCFGSwitchDefaultExhausts(t *testing.T) {
	c := BuildCFG(parseBody(t, `func f(k int) {
	switch k {
	case 1:
		return
	default:
		return
	}
}`), nil)
	// Every case returns and there is a default: the switch.done block
	// is unreachable and Exit is reached only via the returns.
	for _, b := range c.Blocks {
		if b.Kind == "switch.done" && c.Reachable(b) {
			t.Errorf("switch.done should be unreachable:\n%s", dump(c))
		}
	}
	if !c.Reachable(c.Exit) {
		t.Errorf("exit unreachable:\n%s", dump(c))
	}
}

func TestCFGSelect(t *testing.T) {
	c := BuildCFG(parseBody(t, `func f(a, b chan int) {
	select {
	case <-a:
		ra()
	case <-b:
		rb()
	}
	done()
}`), nil)
	if !c.Reachable(blockCalling(c, "ra")) || !c.Reachable(blockCalling(c, "rb")) {
		t.Fatalf("comm clauses unreachable:\n%s", dump(c))
	}
	if !c.Reachable(blockCalling(c, "done")) {
		t.Errorf("done unreachable:\n%s", dump(c))
	}
}

func TestCFGDeadCode(t *testing.T) {
	c := BuildCFG(parseBody(t, `func f() int { return 1; unreachable() }`), nil)
	dead := blockCalling(c, "unreachable")
	if dead == nil {
		t.Fatalf("dead statement has no home:\n%s", dump(c))
	}
	if c.Reachable(dead) {
		t.Errorf("code after return should be unreachable:\n%s", dump(c))
	}
}

func TestCFGDumpShape(t *testing.T) {
	c := BuildCFG(parseBody(t, `func f() { a() }`), nil)
	d := dump(c)
	if !strings.Contains(d, "entry") || !strings.Contains(d, "exit") {
		t.Errorf("dump missing entry/exit:\n%s", d)
	}
}
