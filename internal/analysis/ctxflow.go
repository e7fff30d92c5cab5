package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlow polices cooperative cancellation — the invariant the serving
// layer's graceful drain (PR 6) depends on and, before this analyzer,
// enforced only by convention. A function *receives a context* when a
// parameter or receiver is a context.Context, or is a struct (or
// pointer to one) carrying a context.Context field — gb.RunSpec.Ctx and
// supervise.Spec.Context are the module's two such structs, but the
// rule is structural so corpus and future specs match too. In every
// such function:
//
//  1. blocking operations reachable without a ctx.Done() select are
//     flagged: bare channel sends and receives (including ranging over
//     a channel), time.Sleep, simmpi's blocking Recv and collectives,
//     and sync.WaitGroup.Wait. A send/receive appearing as a case of a
//     select that also has a ctx.Done() case (or a default) is guarded
//     and clean. Calls to module-local functions that themselves block
//     unguarded — and do NOT receive a context to do better — are
//     flagged at the call site (one level through the call graph: the
//     callee is where the fix belongs, the caller is where the context
//     was available);
//  2. calls that pass context.Background() or context.TODO() are
//     flagged: a context is in scope, so starting a fresh root silently
//     disconnects the callee from cancellation.
//
// Blocking operations inside nested function literals are attributed to
// the literal, not the enclosing function: a goroutine body is its own
// cancellation domain (the module's rank workers observe cancellation
// cooperatively at phase boundaries instead). Functions that do not
// receive a context are not policed — they have no ctx to select on.
// Where blocking is the contract (a drain that must wait for workers),
// a //lint:ignore ctxflow directive with the reason documents it.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "unguarded blocking and dropped contexts in context-receiving functions",
	Run:  runCtxFlow,
}

// ctxSummary records whether a node receives a context and whether its
// own body (literals excluded) contains an unguarded blocking
// operation.
type ctxSummary struct {
	receivesCtx bool
	// blocks describes the node's first unguarded blocking operation,
	// "" when none.
	blocks string
}

// ctxSummaries computes (once per Program) every node's summary.
func (p *Program) ctxSummaries() map[*CGNode]*ctxSummary {
	p.ctxOnce.Do(func() {
		g := p.CallGraph()
		sums := make(map[*CGNode]*ctxSummary, len(g.All()))
		for _, n := range g.All() {
			sums[n] = &ctxSummary{receivesCtx: receivesContext(n)}
		}
		for _, n := range g.All() {
			walkBlockingOps(n, func(_ ast.Node, desc string) {
				if sums[n].blocks == "" {
					sums[n].blocks = desc
				}
			})
		}
		p.ctxSums = sums
	})
	return p.ctxSums
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// carriesContext reports whether t is a context, or a struct (or
// pointer to one) with a context-typed field, one level deep.
func carriesContext(t types.Type) bool {
	if isContextType(t) {
		return true
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isContextType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// receivesContext reports whether a node's parameters or receiver carry
// a context.
func receivesContext(n *CGNode) bool {
	sig := nodeSignature(n.Pkg.Info, n)
	if sig == nil {
		return false
	}
	if recv := sig.Recv(); recv != nil && carriesContext(recv.Type()) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if carriesContext(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// walkBlockingOps visits every unguarded blocking operation in a node's
// own body (nested literals excluded — they are their own nodes). The
// guardedComm flag covers exactly the communication operation of a
// select clause whose select can always proceed (a ctx.Done() case or a
// default); nothing below that operation inherits the guard.
func walkBlockingOps(n *CGNode, visit func(at ast.Node, desc string)) {
	info := n.Pkg.Info
	var walk func(node ast.Node, guardedComm bool)
	walkChildren := func(node ast.Node) {
		ast.Inspect(node, func(c ast.Node) bool {
			if c == nil || c == node {
				return true
			}
			walk(c, false)
			return false
		})
	}
	walk = func(node ast.Node, guardedComm bool) {
		switch x := node.(type) {
		case nil:
			return
		case *ast.FuncLit:
			return // its own cancellation domain
		case *ast.SelectStmt:
			guarded := selectGuarded(info, x)
			for _, cl := range x.Body.List {
				cc := cl.(*ast.CommClause)
				if cc.Comm != nil {
					walk(cc.Comm, guarded)
				}
				for _, b := range cc.Body {
					walk(b, false)
				}
			}
			return
		case *ast.SendStmt:
			if !guardedComm {
				visit(x, "channel send")
			}
			walk(x.Chan, false)
			walk(x.Value, false)
			return
		case *ast.AssignStmt:
			if guardedComm {
				// A select case of the form `v := <-ch:` — the receive
				// itself is guarded; its operands are not.
				for _, l := range x.Lhs {
					walk(l, false)
				}
				for _, r := range x.Rhs {
					if u, ok := ast.Unparen(r).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						walk(u.X, false)
						continue
					}
					walk(r, false)
				}
				return
			}
		case *ast.ExprStmt:
			if guardedComm {
				if u, ok := ast.Unparen(x.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					walk(u.X, false)
					return
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if !guardedComm && !isDoneRecv(info, x) {
					visit(x, "channel receive")
				}
				walk(x.X, false)
				return
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					visit(x, "range over channel")
				}
			}
		case *ast.CallExpr:
			if desc := blockingCall(info, x); desc != "" {
				visit(x, desc)
			}
		}
		walkChildren(node)
	}
	walk(n.Body(), false)
}

// selectGuarded reports whether a select can always proceed: it has a
// default clause or a <-ctx.Done() case.
func selectGuarded(info *types.Info, s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		cc := cl.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default
		}
		found := false
		ast.Inspect(cc.Comm, func(n ast.Node) bool {
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op.String() == "<-" && isDoneRecv(info, u) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isDoneRecv reports whether a receive reads a context's Done channel.
func isDoneRecv(info *types.Info, u *ast.UnaryExpr) bool {
	call, ok := ast.Unparen(u.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	t := info.TypeOf(sel.X)
	return t != nil && isContextType(t)
}

// simmpiBlocking are the Comm methods that block until every (live)
// rank arrives or a message lands: the collectives plus the bare Recv.
// TryRecv is the non-blocking escape hatch.
var simmpiBlocking = map[string]bool{
	"Recv": true, "Barrier": true, "Sync": true,
	"Allreduce": true, "Allgatherv": true,
}

// blockingCall classifies a call as a known blocking primitive.
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	if isPkgFunc(info, call, "time", "Sleep") {
		return "time.Sleep"
	}
	if isMethodOn(info, call, "internal/simmpi", "Comm", simmpiBlocking) {
		return "simmpi blocking " + calleeFunc(info, call).Name()
	}
	if f := calleeFunc(info, call); f != nil && f.Name() == "Wait" {
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				obj := named.Obj()
				if obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
					return "sync.WaitGroup.Wait"
				}
			}
		}
	}
	return ""
}

// isFreshRootCtx reports whether an expression is context.Background()
// or context.TODO().
func isFreshRootCtx(info *types.Info, e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "context" {
		return "", false
	}
	if f.Name() == "Background" || f.Name() == "TODO" {
		return "context." + f.Name(), true
	}
	return "", false
}

func runCtxFlow(pass *Pass) {
	sums := pass.Prog.ctxSummaries()
	info := pass.Pkg.Info
	for _, n := range pass.Prog.CallGraph().All() {
		if n.Pkg != pass.Pkg || !sums[n].receivesCtx {
			continue
		}
		// 1a: direct unguarded blocking operations.
		walkBlockingOps(n, func(at ast.Node, desc string) {
			pass.Reportf(at.Pos(),
				"%s in a context-receiving function is not guarded by a ctx.Done() select: cancellation cannot interrupt it", desc)
		})
		// 1b: calls into module-local callees that block unguarded and
		// have no context of their own to do better.
		for _, e := range n.Calls {
			if e.Callee == nil {
				continue
			}
			cs := sums[e.Callee]
			if cs.blocks != "" && !cs.receivesCtx {
				pass.Reportf(e.Call.Pos(),
					"call blocks (%s inside %s) with no way to observe the context in scope: thread the context or guard the callee",
					cs.blocks, e.Callee.Name())
			}
		}
		// 2: dropped contexts.
		ast.Inspect(n.Body(), func(c ast.Node) bool {
			if lit, ok := c.(*ast.FuncLit); ok && lit.Body != n.Body() {
				return false
			}
			call, ok := c.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, a := range call.Args {
				if name, ok := isFreshRootCtx(info, a); ok {
					pass.Reportf(a.Pos(),
						"%s passed while a context is in scope: the callee is silently disconnected from cancellation", name)
				}
			}
			return true
		})
	}
}
