package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Trace reports whether e's value can derive from an expression matched by
// seed, following the def-use chains through local variables, and returns
// the earliest (lexically first) origin position on any derivation path —
// the point the seeded value actually entered the computation, which is
// what staleness-across-yield checks need.
//
// Derivation follows: identifiers (via their reaching definition, plus the
// prior definition for augmented assignments), parentheses, unary +/-/*/&,
// binary operators, and range bindings (an element derives from its
// container). Calls derive only when seed says so (typically via a summary
// fact on the callee); struct fields and map/slice reads do not propagate
// taint — under-approximation is the house style for lint, and every
// analyzer finding is suppressible.
func (fi *FuncInfo) Trace(e ast.Expr, seed func(ast.Expr) bool) (bool, token.Pos) {
	t := &tracer{fi: fi, seed: seed, visiting: map[defKey]bool{}}
	return t.trace(e)
}

type defKey struct {
	v   *types.Var
	pos token.Pos
}

type tracer struct {
	fi       *FuncInfo
	seed     func(ast.Expr) bool
	visiting map[defKey]bool // cycle guard over (var, def) pairs
}

func minPos(a, b token.Pos) token.Pos {
	if !a.IsValid() || (b.IsValid() && b < a) {
		return b
	}
	return a
}

func (t *tracer) trace(e ast.Expr) (bool, token.Pos) {
	if e == nil {
		return false, token.NoPos
	}
	if t.seed(e) {
		return true, e.Pos()
	}
	switch e := e.(type) {
	case *ast.Ident:
		v, ok := t.fi.info.TypesInfo.ObjectOf(e).(*types.Var)
		if !ok || !t.fi.Local(v) {
			return false, token.NoPos
		}
		return t.traceDef(v, t.fi.Reaching(v, e.Pos()))
	case *ast.ParenExpr:
		return t.trace(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.SUB || e.Op == token.ADD || e.Op == token.AND {
			return t.trace(e.X)
		}
	case *ast.StarExpr:
		return t.trace(e.X)
	case *ast.BinaryExpr:
		lt, lp := t.trace(e.X)
		rt, rp := t.trace(e.Y)
		switch {
		case lt && rt:
			return true, minPos(lp, rp)
		case lt:
			return true, lp
		case rt:
			return true, rp
		}
	}
	return false, token.NoPos
}

func (t *tracer) traceDef(v *types.Var, d *Def) (bool, token.Pos) {
	if d == nil {
		return false, token.NoPos
	}
	k := defKey{v, d.Pos}
	if t.visiting[k] {
		return false, token.NoPos
	}
	t.visiting[k] = true
	defer delete(t.visiting, k)

	tainted, origin := false, token.NoPos
	if d.RHS != nil {
		tainted, origin = t.trace(d.RHS)
	}
	if d.Augmented {
		// The prior value flows into this definition (x += e, x++).
		if pt, pp := t.traceDef(v, t.fi.Reaching(v, d.Pos)); pt {
			tainted, origin = true, minPos(origin, pp)
		}
	}
	if tainted && !origin.IsValid() {
		origin = d.Pos
	}
	return tainted, origin
}
