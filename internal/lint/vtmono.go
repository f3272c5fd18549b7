package lint

import (
	"go/ast"
	"go/token"
)

// VtMonoAnalyzer proves that virtual time never moves backwards. An event
// scheduled in the past is a bug the engine can only refuse at run time
// (with a panic), and only on a run that reaches it; a subtly stale
// deadline that stays in the future shows up as a silently wrong timing
// curve.
//
// The analyzer inspects every call whose callee has a hierflow
// TimeSinkParams fact — the des schedule/timer primitives (Engine.At,
// Engine.After, Proc.Sleep) and, transitively, any helper whose parameter
// flows into one — and flags two derivations of the time argument:
//
//   - Subtraction against virtual now (t - Now(), transitively through
//     locals): if the minuend is not provably in the future the result is
//     negative and the schedule lands in the past. Compute durations the
//     other way around or re-derive the deadline.
//
//   - A value derived from now that was captured before a yield point
//     (Sleep/Park/Await, transitively) in the same function: now has
//     advanced across the yield, so the captured timestamp is stale and
//     any schedule computed from it can be in the past.
//
// Both rules are lexical approximations of the runtime ordering (the
// house style: under-approximate, suppressible). A finding that is safe
// by construction takes //lint:ignore vtmono <reason>.
var VtMonoAnalyzer = &Analyzer{
	Name:    "vtmono",
	Doc:     "flags schedule/timer time arguments that can derive from stale or subtracted virtual-now reads",
	Applies: internalOnly,
	Run:     runVtMono,
}

func runVtMono(pass *Pass) {
	in := pass.Flow
	for _, fi := range in.Funcs {
		yields := fi.YieldSites()
		for _, c := range fi.Calls {
			for _, arg := range in.SinkArgs(c) {
				callee := c.Callee.Name()

				// Rule: the argument derives from `x - now` somewhere.
				subSeed := func(e ast.Expr) bool {
					b, ok := e.(*ast.BinaryExpr)
					if !ok || b.Op != token.SUB {
						return false
					}
					tainted, _ := fi.Trace(b.Y, in.NowSeed)
					return tainted
				}
				if ok, _ := fi.Trace(arg, subSeed); ok {
					pass.Reportf(arg.Pos(),
						"time argument of %s derives from subtraction against virtual now; if now has passed the minuend this schedules in the past — derive the delay before reading now, or justify with //lint:ignore vtmono",
						callee)
					continue
				}

				// Rule: now was captured before a yield point that precedes
				// this schedule — the timestamp is stale by the yield's
				// virtual-time advance.
				if ok, origin := fi.Trace(arg, in.NowSeed); ok {
					for _, y := range yields {
						if origin < y && y < c.Expr.Pos() {
							pass.Reportf(arg.Pos(),
								"time argument of %s derives from virtual now captured before the yield at line %d; now has advanced across the yield, so this can schedule in the past",
								callee, in.Fset.Position(y).Line)
							break
						}
					}
				}
			}
		}
	}
}
