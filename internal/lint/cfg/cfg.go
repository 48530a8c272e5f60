// Package cfg builds intraprocedural control-flow graphs from go/ast
// function bodies, using only the standard library. It is the foundation
// of geolint's path-sensitive obligation analyses ("this file must
// be closed on every path to return"): AST-local inspection cannot see
// that a release on one branch does not cover the other, a CFG makes
// every path explicit.
//
// The graph is a set of basic blocks. Each block carries the statements
// and sub-expressions that execute when control enters it, in execution
// order, and edges to its possible successors. Three synthetic blocks
// frame every function:
//
//   - Entry: where control starts; one successor, no nodes.
//   - Exit: every normal function exit (return statements and falling
//     off the end of the body) edges here.
//   - Panic: abnormal exits — panic(...) calls and calls the builder's
//     NoReturn option classifies as never returning (os.Exit, log.Fatal).
//     Analyses that only care about normal returns (obligation leaks)
//     ignore paths into Panic: deferred releases still run on panic, and
//     the process is usually gone anyway.
//
// Construction is purely syntactic: the builder never type-checks and
// never descends into *ast.FuncLit — a function literal is an opaque
// value in the enclosing function's graph and gets its own graph when the
// caller asks for one. Branch conditions are preserved: a block that ends
// in a two-way branch records the condition expression in Cond, with
// Succs[0] the true edge and Succs[1] the false edge, so a downstream
// analysis can refine facts along `err != nil` style guards.
//
// Defer statements appear as ordinary nodes in the block where they
// execute (where the defer is registered, not where the deferred call
// runs). Obligation analyses treat a registered defer-release as a
// release: any path that continues past the defer statement is guaranteed
// the call at exit, normal or panicking.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Kind classifies a block's role in the graph.
type Kind uint8

const (
	// KindBody is an ordinary basic block.
	KindBody Kind = iota
	// KindEntry is the function's unique entry block.
	KindEntry
	// KindExit is the unique normal-return exit block.
	KindExit
	// KindPanic is the unique abnormal exit block (panic / no-return
	// calls).
	KindPanic
)

func (k Kind) String() string {
	switch k {
	case KindEntry:
		return "entry"
	case KindExit:
		return "exit"
	case KindPanic:
		return "panic"
	}
	return "body"
}

// Block is one basic block: nodes execute in order, then control moves to
// one of Succs.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable across
	// builds of the same function: blocks are numbered in creation
	// order).
	Index int
	// Kind marks the synthetic entry/exit blocks.
	Kind Kind
	// Nodes are the statements and header expressions that execute in
	// this block, in execution order. Control-flow statements contribute
	// their header parts only (an if contributes its init statement and
	// condition; the branches are separate blocks).
	Nodes []ast.Node
	// Cond, when non-nil, is the boolean expression this block branches
	// on: Succs[0] is taken when Cond is true, Succs[1] when false. Cond
	// is always also the last entry of Nodes.
	Cond ast.Expr
	// Succs are the possible successor blocks.
	Succs []*Block
	// Preds are the predecessor blocks (computed once building
	// finishes).
	Preds []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks lists every block in creation order; Blocks[0] is Entry,
	// Blocks[1] Exit, Blocks[2] Panic. Blocks with no Preds (other than
	// Entry) are unreachable code.
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	Panic  *Block
}

// Options tune graph construction.
type Options struct {
	// NoReturn reports whether a call expression never returns (so
	// control flows to the Panic block instead of the next statement).
	// The builtin panic(...) is always recognised; NoReturn extends the
	// set, typically with a type-aware check for os.Exit / log.Fatal /
	// runtime.Goexit.
	NoReturn func(*ast.CallExpr) bool
}

// New builds the control-flow graph of one function body. body may be
// the Body of an *ast.FuncDecl or *ast.FuncLit; nested function literals
// are not entered.
func New(body *ast.BlockStmt, opt Options) *Graph {
	b := &builder{opt: opt, labels: map[string]*labelInfo{}}
	b.g = &Graph{}
	b.g.Entry = b.newBlock(KindEntry)
	b.g.Exit = b.newBlock(KindExit)
	b.g.Panic = b.newBlock(KindPanic)
	first := b.newBlock(KindBody)
	b.edge(b.g.Entry, first)
	b.cur = first
	b.stmtList(body.List)
	b.edge(b.cur, b.g.Exit) // falling off the end returns
	for _, blk := range b.g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.g
}

// labelInfo tracks one label: the block a goto jumps to, and — when the
// label names a loop/switch/select — the targets of labeled break and
// continue.
type labelInfo struct {
	target     *Block // start of the labeled statement (goto target)
	breakBlock *Block // labeled break destination (nil until the construct is built)
	continueTo *Block // labeled continue destination (loops only)
	used       bool
}

// frame is one enclosing breakable/continuable construct.
type frame struct {
	breakBlock *Block
	continueTo *Block // nil for switch/select (continue passes through)
	label      string // label naming this construct, if any
}

type builder struct {
	g      *Graph
	cur    *Block
	opt    Options
	frames []frame
	labels map[string]*labelInfo
	// pendingLabel is the label attached to the statement about to be
	// built, so loop builders can register labeled break/continue
	// targets.
	pendingLabel string
}

func (b *builder) newBlock(k Kind) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: k}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edge records from -> to, deduplicating exact repeats.
func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// terminate ends the current block (after a return/goto/break/panic) and
// starts a fresh one for whatever follows. The fresh block has no
// predecessors unless a label or join later targets it — that is exactly
// how unreachable code after a return shows up in the graph.
func (b *builder) terminate() {
	b.cur = b.newBlock(KindBody)
}

func (b *builder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// labelOf returns (creating on demand) the info for a label, so forward
// gotos can target labels not yet built.
func (b *builder) labelOf(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{target: b.newBlock(KindBody)}
		b.labels[name] = li
	}
	return li
}

func (b *builder) pushFrame(breakBlock, continueTo *Block) {
	f := frame{breakBlock: breakBlock, continueTo: continueTo, label: b.pendingLabel}
	if b.pendingLabel != "" {
		li := b.labelOf(b.pendingLabel)
		li.breakBlock = breakBlock
		li.continueTo = continueTo
		b.pendingLabel = ""
	}
	b.frames = append(b.frames, f)
}

func (b *builder) popFrame() { b.frames = b.frames[:len(b.frames)-1] }

// breakTarget resolves a (possibly labeled) break.
func (b *builder) breakTarget(label string) *Block {
	if label != "" {
		if li := b.labels[label]; li != nil && li.breakBlock != nil {
			return li.breakBlock
		}
		return nil
	}
	for i := len(b.frames) - 1; i >= 0; i-- {
		if b.frames[i].breakBlock != nil {
			return b.frames[i].breakBlock
		}
	}
	return nil
}

// continueTarget resolves a (possibly labeled) continue: the innermost
// frame that belongs to a loop.
func (b *builder) continueTarget(label string) *Block {
	if label != "" {
		if li := b.labels[label]; li != nil && li.continueTo != nil {
			return li.continueTo
		}
		return nil
	}
	for i := len(b.frames) - 1; i >= 0; i-- {
		if b.frames[i].continueTo != nil {
			return b.frames[i].continueTo
		}
	}
	return nil
}

// noReturn reports whether a call terminates control flow abnormally.
func (b *builder) noReturn(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		return true
	}
	if b.opt.NoReturn != nil && b.opt.NoReturn(call) {
		return true
	}
	return false
}

// exprEndsFlow scans a simple statement's expressions for a terminating
// call (panic / no-return).
func (b *builder) stmtPanics(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false // a panic inside a closure fires in the closure
		}
		if call, ok := x.(*ast.CallExpr); ok && b.noReturn(call) {
			found = true
		}
		return !found
	})
	return found
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	// Any label attached to a non-breakable statement has no frame; a
	// pending label only survives into pushFrame for for/range/switch/
	// select, so clear it for everything else once consumed below.
	switch s := s.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		b.pendingLabel = ""
		b.stmtList(s.List)
	case *ast.EmptyStmt:
		b.pendingLabel = ""
	case *ast.LabeledStmt:
		li := b.labelOf(s.Label.Name)
		b.edge(b.cur, li.target)
		b.cur = li.target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.ReturnStmt:
		b.pendingLabel = ""
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.terminate()
	case *ast.BranchStmt:
		b.pendingLabel = ""
		b.branchStmt(s)
	case *ast.IfStmt:
		b.pendingLabel = ""
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	default:
		// Simple statements: assignments, expression statements, sends,
		// declarations, defer, go, inc/dec. One node, then possibly a
		// jump to the panic exit.
		b.pendingLabel = ""
		b.add(s)
		if b.stmtPanics(s) {
			b.edge(b.cur, b.g.Panic)
			b.terminate()
		}
	}
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if t := b.breakTarget(label); t != nil {
			b.edge(b.cur, t)
		}
		b.terminate()
	case token.CONTINUE:
		if t := b.continueTarget(label); t != nil {
			b.edge(b.cur, t)
		}
		b.terminate()
	case token.GOTO:
		li := b.labelOf(label)
		li.used = true
		b.edge(b.cur, li.target)
		b.terminate()
	case token.FALLTHROUGH:
		// Handled structurally by switchStmt (the case body's last
		// statement); nothing to do here.
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	b.stmt(s.Init)
	b.add(s.Cond)
	condBlock := b.cur
	condBlock.Cond = s.Cond
	then := b.newBlock(KindBody)
	after := b.newBlock(KindBody)
	b.edge(condBlock, then)
	if s.Else != nil {
		elseB := b.newBlock(KindBody)
		b.edge(condBlock, elseB)
		b.cur = elseB
		b.stmt(s.Else)
		b.edge(b.cur, after)
	} else {
		b.edge(condBlock, after)
	}
	b.cur = then
	b.stmtList(s.Body.List)
	b.edge(b.cur, after)
	b.cur = after
}

func (b *builder) forStmt(s *ast.ForStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	b.stmt(s.Init)
	head := b.newBlock(KindBody)
	b.edge(b.cur, head)
	body := b.newBlock(KindBody)
	after := b.newBlock(KindBody)
	// continue goes to the post statement when there is one, else to the
	// condition re-test.
	contTo := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock(KindBody)
		contTo = post
	}
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
		head.Cond = s.Cond
		b.edge(head, body)
		b.edge(head, after)
	} else {
		// for {}: the only way out is break/return.
		b.edge(head, body)
	}
	b.pendingLabel = label
	b.pushFrame(after, contTo)
	b.cur = body
	b.stmtList(s.Body.List)
	b.edge(b.cur, contTo)
	b.popFrame()
	if post != nil {
		b.cur = post
		b.stmt(s.Post)
		b.edge(b.cur, head)
	}
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	head := b.newBlock(KindBody)
	b.edge(b.cur, head)
	b.cur = head
	b.add(s.X)
	body := b.newBlock(KindBody)
	after := b.newBlock(KindBody)
	// Succs[0] = "another element" (body), Succs[1] = exhausted (after);
	// there is no boolean Cond to refine on.
	b.edge(head, body)
	b.edge(head, after)
	b.pendingLabel = label
	b.pushFrame(after, head)
	b.cur = body
	b.stmtList(s.Body.List)
	b.edge(b.cur, head)
	b.popFrame()
	b.cur = after
}

func (b *builder) switchStmt(s *ast.SwitchStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	b.stmt(s.Init)
	if s.Tag != nil {
		b.add(s.Tag)
	}
	head := b.cur
	after := b.newBlock(KindBody)
	b.pendingLabel = label
	b.pushFrame(after, nil)
	b.caseClauses(s.Body, head, after, func(cc *ast.CaseClause) []ast.Node {
		nodes := make([]ast.Node, 0, len(cc.List))
		for _, e := range cc.List {
			nodes = append(nodes, e)
		}
		return nodes
	})
	b.popFrame()
	b.cur = after
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	b.stmt(s.Init)
	b.add(s.Assign)
	head := b.cur
	after := b.newBlock(KindBody)
	b.pendingLabel = label
	b.pushFrame(after, nil)
	b.caseClauses(s.Body, head, after, func(*ast.CaseClause) []ast.Node { return nil })
	b.popFrame()
	b.cur = after
}

// caseClauses wires the shared switch/type-switch shape: every case body
// is a successor of the head; a missing default adds a direct head→after
// edge; a trailing fallthrough chains into the next case's body.
func (b *builder) caseClauses(body *ast.BlockStmt, head, after *Block, headerNodes func(*ast.CaseClause) []ast.Node) {
	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock(KindBody)
		b.edge(head, blocks[i])
	}
	hasDefault := false
	for i, cc := range clauses {
		if cc.List == nil {
			hasDefault = true
		}
		b.cur = blocks[i]
		for _, n := range headerNodes(cc) {
			b.add(n)
		}
		fallsThrough := false
		stmts := cc.Body
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				stmts = stmts[:n-1]
			}
		}
		b.stmtList(stmts)
		if fallsThrough && i+1 < len(blocks) {
			b.edge(b.cur, blocks[i+1])
			b.terminate()
		} else {
			b.edge(b.cur, after)
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	head := b.cur
	after := b.newBlock(KindBody)
	b.pendingLabel = label
	b.pushFrame(after, nil)
	any := false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		clause := b.newBlock(KindBody)
		b.edge(head, clause)
		b.cur = clause
		b.stmt(cc.Comm)
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
	}
	b.popFrame()
	// A select with no default still has every clause as a successor
	// (one eventually fires); `select {}` has none and blocks forever,
	// which the graph reflects as a block with no path to Exit.
	_ = any
	b.cur = after
}

// Reachable reports whether to is reachable from from along Succs edges.
func (g *Graph) Reachable(from, to *Block) bool {
	seen := make([]bool, len(g.Blocks))
	stack := []*Block{from}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if blk == to {
			return true
		}
		if seen[blk.Index] {
			continue
		}
		seen[blk.Index] = true
		stack = append(stack, blk.Succs...)
	}
	return false
}

// Edges renders every edge as "i->j" strings in deterministic order —
// the test suite's structural fingerprint of a graph.
func (g *Graph) Edges() []string {
	var out []string
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			out = append(out, fmt.Sprintf("%d->%d", blk.Index, s.Index))
		}
	}
	return out
}

// String renders the graph for debugging: one line per block with kind,
// node count, branch marker and successor list.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "b%d(%s)", blk.Index, blk.Kind)
		if len(blk.Nodes) > 0 {
			fmt.Fprintf(&sb, " n=%d", len(blk.Nodes))
		}
		if blk.Cond != nil {
			sb.WriteString(" branch")
		}
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
