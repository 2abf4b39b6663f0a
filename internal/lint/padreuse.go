package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// PadReuse flags the pad-hygiene violations behind the paper's
// one-time-pad security argument: key material must be consumed
// exactly once and must not gain long-lived aliases after it is spent.
// Three shapes are checked, each within one function. Rules 1 and 3
// follow the structured walk as must-facts: a reservation is voided, or
// a pad wiped, past a join only if it is on every path that reaches
// the join, so exclusive if/else branches never false-positive:
//
//  1. pad re-burn: calling Consume on a reservation after a Release or
//     Close voided it — the historical relay bug shape, where a failed
//     delivery burned pad that was already refunded;
//  2. retained alias: a []byte of key material obtained from a
//     keypool/kms consume-style call is stored into a field, global,
//     slice, or map without a copy — the spent pad now has an owner
//     that outlives the wipe-on-consume discipline (store a copy, as
//     NewOTPSA does with append([]byte(nil), pad...));
//  3. use-after-wipe: reading a pad after clear(pad) or a
//     zero/wipe/scrub call — the buffer is zeroes, not key material,
//     and sealing with it would emit plaintext XOR nothing.
var PadReuse = &Analyzer{
	Name: "padreuse",
	Doc: "flag consumed-pad hygiene violations: Consume after Release/Close " +
		"(pad re-burn), storing consumed []byte key material without a copy " +
		"(retained alias), and reads of a wiped pad",
	Run: runPadReuse,
}

// padSourceCalls are the keypool/kms entry points that hand out key
// material the caller then owns exclusively.
var padSourceCalls = map[string]bool{
	"Consume":    true,
	"TryConsume": true,
	"Withdraw":   true,
	"Claim":      true,
	"Next":       true,
}

func runPadReuse(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				walkFlow(pass.TypesInfo, padFlow{pass}, body, []padFact(nil))
				if pads := collectPadVars(pass, body); len(pads) > 0 {
					checkRetainedAliases(pass, body, pads)
				}
			}
			return true
		})
	}
	return nil
}

// ---------------------------------------------------------------------
// Rules 1 and 3 along the structured walk
// ---------------------------------------------------------------------

// A padFact records a reservation voided by Release or Close, or a pad
// wiped, at line.
type padFact struct {
	obj   types.Object
	line  int
	wiped bool
}

// padFlow walks one function with the facts that hold on every path
// as its state. Fact lists are never appended to in place.
type padFlow struct{ pass *Pass }

func (p padFlow) transfer(facts []padFact, n ast.Node, role flowRole) []padFact {
	switch role {
	case flowStmt, flowComm:
		p.reburns(facts, n)
		// A reassignment starts a fresh reservation or pad, before the
		// statement's own reads are judged (pad = freshPad() is not a
		// read of the wiped pad).
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if id, ok := unparen(l).(*ast.Ident); ok {
					facts = slices.DeleteFunc(slices.Clone(facts), func(f padFact) bool {
						return f.obj == p.pass.TypesInfo.Uses[id] || f.obj == p.pass.TypesInfo.Defs[id]
					})
				}
			}
		}
		p.wipedReads(facts, n)
		if obj := voidCall(p.pass, n); obj != nil {
			facts = addPadFact(facts, padFact{obj, p.line(n), false})
		}
		if obj := wipeCall(p.pass, n); obj != nil {
			facts = addPadFact(facts, padFact{obj, p.line(n), true})
		}
	case flowCond, flowRange, flowResult, flowGo, flowDefer:
		p.reburns(facts, n)
		p.wipedReads(facts, n)
	}
	return facts
}

// join keeps the facts that hold on both paths.
func (padFlow) join(_ ast.Stmt, a, b []padFact) []padFact {
	var both []padFact
	for _, f := range a {
		if slices.ContainsFunc(b, func(g padFact) bool { return g.obj == f.obj }) {
			both = append(both, f)
		}
	}
	return both
}

// addPadFact records f unless its variable already has a fact: the
// first void or wipe on a path is the one reported.
func addPadFact(facts []padFact, f padFact) []padFact {
	if slices.ContainsFunc(facts, func(g padFact) bool { return g.obj == f.obj }) {
		return facts
	}
	return append(facts[:len(facts):len(facts)], f)
}

func (p padFlow) line(n ast.Node) int {
	return p.pass.Fset.Position(n.Pos()).Line
}

// fact returns the fact recorded for the variable id uses, if any.
func (p padFlow) fact(facts []padFact, id *ast.Ident) (padFact, bool) {
	if obj := p.pass.TypesInfo.Uses[id]; obj != nil {
		for _, f := range facts {
			if f.obj == obj {
				return f, true
			}
		}
	}
	return padFact{}, false
}

// ---------------------------------------------------------------------
// Rule 1: Consume after Release/Close (pad re-burn)
// ---------------------------------------------------------------------

// voidCall matches `rv.Release()` / `rv.Close()` where rv has a
// reservation type, returning the receiver's object.
func voidCall(pass *Pass, n ast.Node) types.Object {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := unparen(es.X).(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Release" && sel.Sel.Name != "Close") {
		return nil
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || !isReservationType(obj.Type()) {
		return nil
	}
	return obj
}

// reburns flags rv.Consume(...) in n where rv was voided on every path
// to n.
func (p padFlow) reburns(facts []padFact, n ast.Node) {
	if len(facts) == 0 {
		return
	}
	scanNoFuncLit(n, func(m ast.Node) {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Consume" {
			return
		}
		id, ok := unparen(sel.X).(*ast.Ident)
		if !ok {
			return
		}
		if f, ok := p.fact(facts, id); ok && !f.wiped {
			p.pass.Reportf(call.Pos(), "pad re-burn: %s.Consume after %s voided the reservation at line %d; the set-aside key was already refunded or discarded",
				id.Name, id.Name, f.line)
		}
	})
}

// ---------------------------------------------------------------------
// Rule 2: retained alias of consumed []byte key material
// ---------------------------------------------------------------------

// collectPadVars finds local []byte variables initialized directly
// from a keypool/kms consume-style call.
func collectPadVars(pass *Pass, body *ast.BlockStmt) map[types.Object]string {
	pads := make(map[types.Object]string)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, l := range as.Lhs {
			id, ok := unparen(l).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			var rhs ast.Expr
			if len(as.Rhs) == 1 {
				rhs = as.Rhs[0]
			} else if i < len(as.Rhs) {
				rhs = as.Rhs[i]
			}
			call, ok := unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || !padSourceCalls[fn.Name()] {
				continue
			}
			if name := fn.Pkg().Name(); name != "keypool" && name != "kms" {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil || !isByteSlice(obj.Type()) {
				continue
			}
			pads[obj] = fn.Pkg().Name() + "." + fn.Name()
		}
		return true
	})
	return pads
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// checkRetainedAliases flags stores of a pad variable into locations
// that outlive the function: struct fields, globals, slice/map
// elements, composite literals, and append without a byte copy.
func checkRetainedAliases(pass *Pass, body *ast.BlockStmt, pads map[types.Object]string) {
	report := func(id *ast.Ident, src, how string) {
		pass.Reportf(id.Pos(), "consumed key material %s (from %s) is %s without a copy; the spent pad gains a long-lived alias — store append([]byte(nil), %s...) instead",
			id.Name, src, how, id.Name)
	}
	padOf := func(e ast.Expr) (*ast.Ident, string, bool) {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return nil, "", false
		}
		obj := pass.TypesInfo.Uses[id]
		src, tracked := pads[obj]
		return id, src, tracked
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				id, src, ok := padOf(r)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				switch lhs := unparen(n.Lhs[i]).(type) {
				case *ast.SelectorExpr:
					report(id, src, "assigned to field "+lhs.Sel.Name)
				case *ast.IndexExpr:
					report(id, src, "stored into a slice or map element")
				case *ast.Ident:
					if v, ok := pass.TypesInfo.Uses[lhs].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
						report(id, src, "assigned to package-level variable "+v.Name())
					}
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if id, src, ok := padOf(v); ok {
					report(id, src, "stored in a composite literal")
				}
			}
		case *ast.CallExpr:
			// append(xs, pad) retains the alias; append(dst, pad...)
			// copies bytes and is the sanctioned idiom.
			if fun, ok := unparen(n.Fun).(*ast.Ident); ok && fun.Name == "append" {
				if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
					for i, arg := range n.Args {
						if i == 0 {
							continue
						}
						if n.Ellipsis.IsValid() && i == len(n.Args)-1 {
							continue
						}
						if id, src, ok := padOf(arg); ok {
							report(id, src, "appended into a longer-lived slice")
						}
					}
				}
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------
// Rule 3: reads of a wiped pad
// ---------------------------------------------------------------------

// wipeCall matches a statement `clear(pad)` or
// `zeroX(pad)`/`wipeX(pad)`/`scrub(pad)`, returning the wiped object.
func wipeCall(pass *Pass, n ast.Node) types.Object {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := unparen(es.X).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	var name string
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
		if name == "clear" {
			if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); !isBuiltin {
				return nil
			}
		}
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return nil
	}
	lower := strings.ToLower(name)
	if name != "clear" && !strings.Contains(lower, "zero") && !strings.Contains(lower, "wipe") && !strings.Contains(lower, "scrub") {
		return nil
	}
	id, ok := unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || !isByteSlice(obj.Type()) {
		return nil
	}
	return obj
}

// wipedReads flags reads in n of a pad wiped on every path to n.
func (p padFlow) wipedReads(facts []padFact, n ast.Node) {
	if len(facts) == 0 {
		return
	}
	scanNoFuncLit(n, func(m ast.Node) {
		id, ok := m.(*ast.Ident)
		if !ok {
			return
		}
		if f, ok := p.fact(facts, id); ok && f.wiped {
			p.pass.Reportf(id.Pos(), "use of %s after it was wiped at line %d; the zeroed buffer is no longer key material", id.Name, f.line)
		}
	})
}

// scanNoFuncLit walks n's subtree, skipping nested function literals
// (their execution time is unknown).
func scanNoFuncLit(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if m != nil {
			fn(m)
		}
		return true
	})
}
