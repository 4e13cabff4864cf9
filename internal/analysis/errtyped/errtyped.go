// Package errtyped enforces the typed-error contract: all four engines
// surface deadlock/infeasibility as the one shared *core.ErrDeadlock,
// possibly wrapped with %w, so a caller matches any engine with a
// single errors.As. Matching by ==, by concrete type assertion, or by
// grepping err.Error() silently stops
// working the moment an engine adds a fmt.Errorf("job %q: %w", ...)
// wrapper — which multitree already does.
//
// The analyzer flags, in any package:
//
//   - == / != between two error values (other than nil checks): wrapped
//     errors never compare equal — use errors.Is;
//   - type assertions err.(*SomeError) and type switches with concrete
//     error case types: they do not unwrap — use errors.As;
//   - string matching on err.Error() (strings.Contains/HasPrefix/
//     HasSuffix/Index, or ==): error text is not an API;
//   - constructing a deadlock error out of band: errors.New or
//     fmt.Errorf whose message mentions "deadlock" without wrapping an
//     existing error via %w — build a *core.ErrDeadlock (or wrap one)
//     so errors.As keeps matching.
package errtyped

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the errtyped analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "errtyped",
	Doc:  "require errors.Is/errors.As for error matching and %w-wrapping of core.ErrDeadlock for deadlock errors",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkCompare(pass, n)
			case *ast.TypeAssertExpr:
				checkAssert(pass, n)
			case *ast.TypeSwitchStmt:
				checkTypeSwitch(pass, n)
			case *ast.CallExpr:
				checkStringMatch(pass, n)
				checkConstruction(pass, n)
			}
			return true
		})
	}
	return nil
}

// isErrorInterface reports whether t is an interface type that
// includes the error interface (error itself, or a superset).
func isErrorInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	return types.Implements(iface, errType.Underlying().(*types.Interface))
}

// isConcreteError reports whether t is a non-interface type whose
// value or pointer form implements error.
func isConcreteError(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		return false
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errIface)
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

// errorDotError matches a call expression of the form E.Error() where
// E is error-typed, returning E's position.
func errorDotError(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	return isErrorInterface(pass.TypesInfo.TypeOf(sel.X))
}

func checkCompare(pass *analysis.Pass, cmp *ast.BinaryExpr) {
	if cmp.Op != token.EQL && cmp.Op != token.NEQ {
		return
	}
	// err.Error() == "..." — string matching in == clothing.
	if errorDotError(pass, cmp.X) || errorDotError(pass, cmp.Y) {
		pass.Reportf(cmp.Pos(), "comparing err.Error() text; error text is not an API — match with errors.Is/errors.As against the typed error")
		return
	}
	xt, yt := pass.TypesInfo.TypeOf(cmp.X), pass.TypesInfo.TypeOf(cmp.Y)
	if !isErrorInterface(xt) && !isErrorInterface(yt) {
		return
	}
	if isNil(pass, cmp.X) || isNil(pass, cmp.Y) {
		return // err == nil is the idiom
	}
	pass.Reportf(cmp.Pos(), "errors compared with %s break under %%w wrapping (multitree wraps engine deadlocks); use errors.Is", cmp.Op)
}

func checkAssert(pass *analysis.Pass, ta *ast.TypeAssertExpr) {
	if ta.Type == nil {
		return // x.(type) inside a type switch; handled there
	}
	if !isErrorInterface(pass.TypesInfo.TypeOf(ta.X)) {
		return
	}
	if isConcreteError(pass.TypesInfo.TypeOf(ta.Type)) {
		pass.Reportf(ta.Pos(), "type assertion on an error does not unwrap %%w chains (multitree wraps engine deadlocks); use errors.As")
	}
}

func checkTypeSwitch(pass *analysis.Pass, ts *ast.TypeSwitchStmt) {
	// Extract the asserted expression: switch v := x.(type) / switch x.(type).
	var x ast.Expr
	switch a := ts.Assign.(type) {
	case *ast.ExprStmt:
		if ta, ok := ast.Unparen(a.X).(*ast.TypeAssertExpr); ok {
			x = ta.X
		}
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			if ta, ok := ast.Unparen(a.Rhs[0]).(*ast.TypeAssertExpr); ok {
				x = ta.X
			}
		}
	}
	if x == nil || !isErrorInterface(pass.TypesInfo.TypeOf(x)) {
		return
	}
	for _, cl := range ts.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, t := range cc.List {
			if isConcreteError(pass.TypesInfo.TypeOf(t)) {
				pass.Reportf(t.Pos(), "type switch on an error does not unwrap %%w chains; use errors.As")
				return
			}
		}
	}
}

func checkStringMatch(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "strings" {
		return
	}
	switch fn.Name() {
	case "Contains", "HasPrefix", "HasSuffix", "Index", "EqualFold":
	default:
		return
	}
	for _, arg := range call.Args {
		if errorDotError(pass, arg) {
			pass.Reportf(call.Pos(), "strings.%s on err.Error(); error text is not an API — match with errors.Is/errors.As against the typed error", fn.Name())
			return
		}
	}
}

// checkConstruction flags deadlock-flavoured errors built without the
// typed core.ErrDeadlock or a %w wrap.
func checkConstruction(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING || !strings.Contains(strings.ToLower(lit.Value), "deadlock") {
		return
	}
	switch {
	case fn.Pkg().Path() == "errors" && fn.Name() == "New":
		pass.Reportf(call.Pos(), "deadlock error built with errors.New; construct *core.ErrDeadlock (or wrap one with %%w) so errors.As matches it")
	case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf" && !strings.Contains(lit.Value, "%w"):
		pass.Reportf(call.Pos(), "deadlock error built with fmt.Errorf without %%w; wrap the engine's *core.ErrDeadlock so errors.As matches it")
	}
}
