package analysis

import (
	"go/ast"
	"go/types"
)

// collectiveNames are the simmpi.Comm methods every rank must call in the
// same sequence.
var collectiveNames = map[string]bool{
	"Barrier":    true,
	"Allreduce":  true,
	"Allgatherv": true,
}

// SPMDSym flags simmpi collective calls reachable only under
// rank-dependent conditionals — the classic SPMD-mismatch deadlock: if
// rank 0 enters a Barrier the other ranks skip, the world hangs (or, with
// the fault runtime, aborts). Point-to-point calls (Send/Recv) under rank
// conditionals are normal master/worker structure and are not flagged;
// only the collectives must be symmetric.
//
// Rank dependence is tracked per function: the condition of an if/switch
// is rank-dependent when it mentions a call to (*simmpi.Comm).Rank or a
// local variable (transitively) assigned from one.
//
// A rank-dependent branch is still symmetric when every path through it
// issues the same collective sequence — the master/worker Allgatherv
// idiom (`if rank > 0 { c.Allgatherv(seg) } else { c.Allgatherv(nil) }`)
// is legal SPMD. An if with both branches carrying identical collective
// sequences, or a switch whose every case (default included) does, is
// therefore not flagged; only branches where some rank would skip or
// reorder a collective are.
var SPMDSym = &Analyzer{
	Name: "spmdsym",
	Doc:  "collective calls guarded by rank-dependent conditionals break SPMD symmetry",
	Run:  runSPMDSym,
}

func runSPMDSym(pass *Pass) {
	info := pass.Pkg.Info
	walkFuncs(pass.Pkg, func(body *ast.BlockStmt) {
		tainted := rankTaintedVars(info, body)
		taintedExpr := func(e ast.Expr) bool {
			found := false
			ast.Inspect(e, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if v, ok := info.Uses[n].(*types.Var); ok && tainted[v] {
						found = true
					}
				case *ast.CallExpr:
					if isMethodOn(info, n, "internal/simmpi", "Comm", map[string]bool{"Rank": true}) {
						found = true
					}
				}
				return !found
			})
			return found
		}

		var walk func(n ast.Node, rankCond bool)
		walkAll := func(rankCond bool, nodes ...ast.Node) {
			for _, n := range nodes {
				if n != nil {
					walk(n, rankCond)
				}
			}
		}
		walk = func(n ast.Node, rankCond bool) {
			switch n := n.(type) {
			case nil:
				return
			case *ast.IfStmt:
				walkAll(rankCond, n.Init, n.Cond)
				inner := rankCond
				if !inner && taintedExpr(n.Cond) && !ifSymmetric(info, n) {
					inner = true
				}
				walkAll(inner, n.Body, n.Else)
			case *ast.SwitchStmt:
				walkAll(rankCond, n.Init, n.Tag)
				tainted := n.Tag != nil && taintedExpr(n.Tag)
				if !tainted && n.Body != nil {
					for _, cc := range n.Body.List {
						for _, e := range cc.(*ast.CaseClause).List {
							if taintedExpr(e) {
								tainted = true
							}
						}
					}
				}
				inner := rankCond
				if !inner && tainted && !switchSymmetric(info, n) {
					inner = true
				}
				walkAll(inner, n.Body)
			case *ast.ForStmt:
				walkAll(rankCond, n.Init, n.Post)
				inner := rankCond || (n.Cond != nil && taintedExpr(n.Cond))
				walkAll(inner, n.Cond, n.Body)
			case *ast.CallExpr:
				if rankCond && isMethodOn(info, n, "internal/simmpi", "Comm", collectiveNames) {
					name := calleeFunc(info, n).Name()
					pass.Reportf(n.Pos(),
						"collective %s is only reached under a rank-dependent condition: every rank must execute the same collective sequence or the world deadlocks", name)
				}
				for _, child := range n.Args {
					walk(child, rankCond)
				}
				walk(n.Fun, rankCond)
			default:
				// Generic traversal preserving the rankCond flag.
				ast.Inspect(n, func(c ast.Node) bool {
					if c == nil || c == n {
						return true
					}
					walk(c, rankCond)
					return false
				})
			}
		}
		walk(body, false)
	})
}

// collectiveSeq returns the ordered collective method names invoked in a
// subtree (nil-safe). Calls inside nested function literals count too —
// conservative, but a closure issuing collectives inside one branch is
// already suspect.
func collectiveSeq(info *types.Info, n ast.Node) []string {
	var seq []string
	if n == nil {
		return seq
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if call, ok := c.(*ast.CallExpr); ok {
			if isMethodOn(info, call, "internal/simmpi", "Comm", collectiveNames) {
				seq = append(seq, calleeFunc(info, call).Name())
			}
		}
		return true
	})
	return seq
}

func seqEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ifSymmetric reports whether a rank-dependent if issues the same
// collective sequence on both paths. A missing else is the empty
// sequence, so `if rank == 0 { c.Barrier() }` stays asymmetric.
func ifSymmetric(info *types.Info, n *ast.IfStmt) bool {
	var elseSeq []string
	if n.Else != nil {
		elseSeq = collectiveSeq(info, n.Else)
	}
	return seqEqual(collectiveSeq(info, n.Body), elseSeq)
}

// switchSymmetric reports whether every path through a rank-dependent
// switch issues the same collective sequence. Without a default clause
// the fall-through path is the empty sequence and must match too.
func switchSymmetric(info *types.Info, n *ast.SwitchStmt) bool {
	if n.Body == nil {
		return true
	}
	hasDefault := false
	var ref []string
	first := true
	for _, stmt := range n.Body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		seq := collectiveSeq(info, &ast.BlockStmt{List: cc.Body})
		if first {
			ref, first = seq, false
		} else if !seqEqual(ref, seq) {
			return false
		}
	}
	if !hasDefault && len(ref) > 0 {
		return false
	}
	return true
}

// rankTaintedVars computes the local variables whose value derives from
// (*simmpi.Comm).Rank within one function body, by fixpoint over simple
// assignments.
func rankTaintedVars(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	tainted := make(map[*types.Var]bool)
	exprTainted := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if v, ok := info.Uses[n].(*types.Var); ok && tainted[v] {
					found = true
				}
			case *ast.CallExpr:
				if isMethodOn(info, n, "internal/simmpi", "Comm", map[string]bool{"Rank": true}) {
					found = true
				}
			}
			return !found
		})
		return found
	}
	lhsVar := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if v, ok := info.Defs[id].(*types.Var); ok {
			return v
		}
		v, _ := info.Uses[id].(*types.Var)
		return v
	}
	for iter := 0; iter < 8; iter++ {
		changed := false
		mark := func(v *types.Var) {
			if v != nil && !tainted[v] {
				tainted[v] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
					if exprTainted(n.Rhs[0]) {
						for _, l := range n.Lhs {
							mark(lhsVar(l))
						}
					}
					return true
				}
				for i, l := range n.Lhs {
					if i < len(n.Rhs) && exprTainted(n.Rhs[i]) {
						mark(lhsVar(l))
					}
				}
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						rhsTainted := false
						if len(vs.Values) == 1 && len(vs.Names) > 1 {
							rhsTainted = exprTainted(vs.Values[0])
						} else if i < len(vs.Values) {
							rhsTainted = exprTainted(vs.Values[i])
						}
						if rhsTainted {
							if v, ok := info.Defs[name].(*types.Var); ok {
								mark(v)
							}
						}
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return tainted
}
