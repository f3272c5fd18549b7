package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BracketAnalyzer proves the node-phase bracketing discipline: every
// EnterNodePhase is matched by an ExitNodePhase on every path out of the
// function, and brackets never nest. The brackets change the cost model (a
// node-phase ReduceLocal skips the fabric; the exit charges one network
// latency), so an unbalanced pair silently skews timings. The mpi layer
// panics on a nested enter or an unmatched exit, but only on the first run
// that actually reaches it — the analyzer catches the path that tests miss.
//
// The walk is a lexical abstract interpretation of the function body. Bare
// Enter/Exit calls push and pop an unconditional bracket; the shipped
// size-gated idiom
//
//	bracket := p.PhaseEligible(lcomm, n)
//	if bracket { p.EnterNodePhase() }
//	...
//	if bracket { p.ExitNodePhase() }
//
// is recognized structurally — an if whose body is exactly the bracket call
// pushes a guarded bracket keyed by the condition's source form, and the
// matching exit must close under the same key, so an exit guarded by a
// different condition than its enter is reported rather than assumed
// balanced. Branches of ordinary control flow (if/for/switch/select) must
// leave the bracket depth where they found it; a return while a bracket is
// open is a missing exit on that path. A deferred ExitNodePhase waives the
// per-path checks for its function. Like the other analyzers this
// under-approximates runtime reachability; a provably safe finding takes
// //lint:ignore bracket <reason>.
var BracketAnalyzer = &Analyzer{
	Name:    "bracket",
	Doc:     "flags unbalanced EnterNodePhase/ExitNodePhase brackets: nested enters, unmatched exits, and paths that leave a node phase open",
	Applies: internalOnly,
	Run:     runBracket,
}

func runBracket(pass *Pass) {
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkBrackets(pass, body)
			}
			return true // keep descending: literals nest inside declarations
		})
	}
}

// openBracket is one un-exited EnterNodePhase: where it was entered and the
// source form of its guard ("" for an unguarded enter).
type openBracket struct {
	pos   token.Pos
	guard string
}

// bracketWalk carries the abstract state of one function body.
type bracketWalk struct {
	pass      *Pass
	open      []openBracket
	deferExit bool // a deferred ExitNodePhase waives path checks
}

func checkBrackets(pass *Pass, body *ast.BlockStmt) {
	w := &bracketWalk{pass: pass}
	w.stmts(body.List)
	if w.deferExit {
		return
	}
	for _, ob := range w.open {
		pass.Reportf(ob.pos,
			"EnterNodePhase is not matched by an ExitNodePhase on every path out of the function")
	}
}

// bracketCall classifies stmt as a bare EnterNodePhase/ExitNodePhase call.
func bracketCall(stmt ast.Stmt) (call *ast.CallExpr, enter, ok bool) {
	es, isExpr := stmt.(*ast.ExprStmt)
	if !isExpr {
		return nil, false, false
	}
	c, isCall := es.X.(*ast.CallExpr)
	if !isCall {
		return nil, false, false
	}
	sel, isSel := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	switch sel.Sel.Name {
	case "EnterNodePhase":
		return c, true, true
	case "ExitNodePhase":
		return c, false, true
	}
	return nil, false, false
}

// guardedBracket matches `if cond { p.EnterNodePhase() }` (no else, no init)
// and its exit twin, returning the condition's source form as the key.
func guardedBracket(stmt ast.Stmt) (call *ast.CallExpr, guard string, enter, ok bool) {
	is, isIf := stmt.(*ast.IfStmt)
	if !isIf || is.Else != nil || is.Init != nil || len(is.Body.List) != 1 {
		return nil, "", false, false
	}
	c, enter, ok := bracketCall(is.Body.List[0])
	if !ok {
		return nil, "", false, false
	}
	return c, types.ExprString(is.Cond), enter, true
}

// stmts walks one statement list, updating the open-bracket stack in source
// order. Nested control flow recurses through branch, which restores the
// entry depth afterwards — a branch that does not return must leave the
// bracket state as it found it.
func (w *bracketWalk) stmts(list []ast.Stmt) {
	for _, stmt := range list {
		if c, guard, enter, ok := guardedBracket(stmt); ok {
			w.apply(c, guard, enter)
			continue
		}
		if c, enter, ok := bracketCall(stmt); ok {
			w.apply(c, "", enter)
			continue
		}
		switch s := stmt.(type) {
		case *ast.ReturnStmt:
			if len(w.open) > 0 && !w.deferExit {
				w.pass.Reportf(s.Pos(),
					"return inside a node phase entered at line %d; this path is missing an ExitNodePhase",
					w.pass.Fset().Position(w.open[len(w.open)-1].pos).Line)
			}
		case *ast.DeferStmt:
			if sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "ExitNodePhase" {
				w.deferExit = true
			}
		case *ast.IfStmt:
			w.branch(s.Body.List, s.Pos())
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				w.branch(e.List, e.Pos())
			case *ast.IfStmt:
				w.branch([]ast.Stmt{e}, e.Pos())
			}
		case *ast.ForStmt:
			w.branch(s.Body.List, s.Pos())
		case *ast.RangeStmt:
			w.branch(s.Body.List, s.Pos())
		case *ast.SwitchStmt:
			for _, cc := range s.Body.List {
				if cl, ok := cc.(*ast.CaseClause); ok {
					w.branch(cl.Body, cl.Pos())
				}
			}
		case *ast.TypeSwitchStmt:
			for _, cc := range s.Body.List {
				if cl, ok := cc.(*ast.CaseClause); ok {
					w.branch(cl.Body, cl.Pos())
				}
			}
		case *ast.SelectStmt:
			for _, cc := range s.Body.List {
				if cl, ok := cc.(*ast.CommClause); ok {
					w.branch(cl.Body, cl.Pos())
				}
			}
		case *ast.BlockStmt:
			w.stmts(s.List)
		case *ast.LabeledStmt:
			w.stmts([]ast.Stmt{s.Stmt})
		}
	}
}

// apply performs one enter or exit on the stack.
func (w *bracketWalk) apply(c *ast.CallExpr, guard string, enter bool) {
	if enter {
		if len(w.open) > 0 {
			w.pass.Reportf(c.Pos(),
				"nested EnterNodePhase: a node phase is already open since line %d (the engine panics on nested enters)",
				w.pass.Fset().Position(w.open[len(w.open)-1].pos).Line)
		}
		w.open = append(w.open, openBracket{pos: c.Pos(), guard: guard})
		return
	}
	if len(w.open) == 0 {
		w.pass.Reportf(c.Pos(), "ExitNodePhase without a matching EnterNodePhase on this path")
		return
	}
	top := w.open[len(w.open)-1]
	w.open = w.open[:len(w.open)-1]
	if top.guard != guard {
		w.pass.Reportf(c.Pos(),
			"ExitNodePhase guard %q does not match the EnterNodePhase guard %q from line %d; the bracket can open without closing (or close without opening)",
			guard, top.guard, w.pass.Fset().Position(top.pos).Line)
	}
}

// branch walks a nested control-flow body with the current state and
// requires it to restore the entry bracket depth: a branch may contain
// complete enter/exit pairs (and may return, which the return rule checks),
// but must not leave a phase open — or closed — for code after the branch.
func (w *bracketWalk) branch(list []ast.Stmt, pos token.Pos) {
	saved := append([]openBracket(nil), w.open...)
	w.stmts(list)
	if w.deferExit {
		return
	}
	if len(w.open) > len(saved) {
		ob := w.open[len(w.open)-1]
		w.pass.Reportf(ob.pos,
			"EnterNodePhase inside a conditional branch is not exited before the branch ends; code after the branch runs bracketed on some paths only")
	} else if len(w.open) < len(saved) {
		// The branch consumed an enclosing bracket: code after it runs
		// unbracketed on this path but bracketed on the fall-through path.
		w.pass.Reportf(pos,
			"this branch exits a node phase entered outside it; code after the branch is bracketed on some paths only")
	}
	w.open = saved
}
