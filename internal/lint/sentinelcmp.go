package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// SentinelCmp flags ==/!= comparisons (and switch cases) between an
// error value and a sentinel error variable. The stack's degraded
// modes key off sentinels that are routinely wrapped — kms.ErrExhausted
// wraps keypool.ErrExhausted, gateways wrap ipsec.ErrExpired with SPI
// context — so an identity comparison silently stops matching the
// moment a layer adds context. errors.Is is the only correct match.
var SentinelCmp = &Analyzer{
	Name: "sentinelcmp",
	Doc: "flag ==/!= comparisons of errors against sentinel variables; " +
		"wrapped errors (kms wraps keypool, gateways wrap ipsec) make identity " +
		"comparison silently miss, so sentinel matches must use errors.Is",
	Run: runSentinelCmp,
}

var sentinelNameRE = regexp.MustCompile(`^Err[A-Z0-9]`)

func runSentinelCmp(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if isUntypedNil(pass, n.X) || isUntypedNil(pass, n.Y) {
					return true
				}
				sv := sentinelVar(pass, n.X)
				if sv == nil {
					sv = sentinelVar(pass, n.Y)
				}
				if sv == nil {
					return true
				}
				verb := "errors.Is(err, " + sv.Name() + ")"
				if n.Op == token.NEQ {
					verb = "!" + verb
				}
				pass.Reportf(n.OpPos, "error compared to sentinel %s with %s; use %s so wrapped errors still match",
					sv.Name(), n.Op, verb)
			case *ast.SwitchStmt:
				if n.Tag == nil || !isErrorExpr(pass, n.Tag) {
					return true
				}
				for _, clause := range n.Body.List {
					cc, ok := clause.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if sv := sentinelVar(pass, e); sv != nil {
							pass.Reportf(e.Pos(), "switch case compares error to sentinel %s by identity; use if errors.Is(err, %s) chains instead",
								sv.Name(), sv.Name())
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// sentinelVar returns the package-level error variable named like a
// sentinel (ErrFoo) that e refers to, or nil.
func sentinelVar(pass *Pass, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch e := unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !sentinelNameRE.MatchString(v.Name()) {
		return nil
	}
	if !isErrorType(v.Type()) {
		return nil
	}
	return v
}

func isErrorExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Type != nil && isErrorType(tv.Type)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is (or implements) error.
func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface) || types.Identical(t, errorIface)
}

func isUntypedNil(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}
