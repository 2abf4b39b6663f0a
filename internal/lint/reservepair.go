package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// ReservePair proves (in the lostcancel style) that every
// keypool.Reservation obtained from Reserve reaches Consume, Release,
// or Close on all paths of its enclosing function, or escapes to an
// owner who can. A reservation holds set-aside key out of
// Available(): a path that returns without finishing it strands those
// bits forever — exactly the leak PR 4 fixed in relay (Cut'd links
// left transports blocked on pads nobody would ever refund).
//
// The analysis runs on the shared structured walk (flow.go) over the
// enclosing function, tracking whether the reservation is still
// pending when a return or the end of its scope is reached. It is deliberately conservative about aliasing: any use
// other than a method call — passing the reservation to a function,
// appending it to a slice, returning it, storing it, capturing it in a
// closure — transfers ownership and ends the obligation locally.
// Guard branches conditioned on the reservation or on the error from
// the same assignment (if err != nil { return err }) are the failure
// path on which the reservation is nil, and are exempt. Functions
// containing goto are skipped.
var ReservePair = &Analyzer{
	Name: "reservepair",
	Doc: "prove every keypool.Reserve reservation reaches Consume, Release, " +
		"or Close (or escapes) on all paths; a path that drops it strands " +
		"set-aside key bits out of the reservoir forever",
	Run: runReservePair,
}

// reservationTerminators end the Consume/Release/Close obligation.
var reservationTerminators = map[string]bool{
	"Consume": true,
	"Release": true,
	"Close":   true,
}

// isReservationType reports whether t is keypool.Reservation or a
// pointer to it. Matching by (package name, type name) rather than
// full import path keeps the analyzer testable against the fake
// keypool package in testdata.
func isReservationType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Reservation" && obj.Pkg() != nil && obj.Pkg().Name() == "keypool"
}

func runReservePair(pass *Pass) error {
	for _, f := range pass.Files {
		WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				checkReserve(pass, s, s.Lhs, s.Rhs, stack)
			case *ast.DeclStmt:
				if gd, ok := s.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					for _, spec := range gd.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
							lhs := make([]ast.Expr, len(vs.Names))
							for i, name := range vs.Names {
								lhs[i] = name
							}
							checkReserve(pass, s, lhs, vs.Values, stack)
						}
					}
				}
			case *ast.ExprStmt:
				if call, ok := unparen(s.X).(*ast.CallExpr); ok {
					if idx := reservationResultIndex(pass, call); idx >= 0 {
						pass.Reportf(call.Pos(), "result of %s is discarded; the reservation's set-aside key bits can never be consumed, released, or closed", callName(pass, call))
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkReserve handles `rv, err := pool.Reserve(n)`, plain `=`, and
// `var rv, err = pool.Reserve(n)`; stack holds stmt's ancestors.
func checkReserve(pass *Pass, stmt ast.Stmt, lhs, rhs []ast.Expr, stack []ast.Node) {
	// Creation means the right-hand side is a call producing a
	// reservation; aliasing assignments (rv2 := rv) are not creations.
	resultOfCall := func(i int) *ast.CallExpr {
		if len(rhs) == 1 && len(lhs) > 1 {
			call, _ := unparen(rhs[0]).(*ast.CallExpr)
			return call
		}
		if i < len(rhs) {
			call, _ := unparen(rhs[i]).(*ast.CallExpr)
			return call
		}
		return nil
	}
	for i, l := range lhs {
		id, ok := unparen(l).(*ast.Ident)
		if !ok {
			continue
		}
		call := resultOfCall(i)
		if call == nil {
			continue
		}
		t := lhsType(pass, id, call, i, len(lhs))
		if t == nil || !isReservationType(t) {
			continue
		}
		if id.Name == "_" {
			pass.Reportf(id.Pos(), "reservation from %s is assigned to _; its set-aside key bits can never be consumed, released, or closed", callName(pass, call))
			continue
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id] // plain `=` to an existing var
		}
		if obj == nil {
			continue
		}
		body := enclosingFuncBody(stack)
		if body == nil || containsGoto(body) {
			continue
		}
		f := &resvFlow{
			pass:    pass,
			obj:     obj,
			errObj:  companionErrObj(pass, lhs, i),
			decl:    stmt,
			scope:   stack[len(stack)-1],
			callPos: call.Pos(),
			name:    id.Name,
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if ifs, ok := n.(*ast.IfStmt); ok && f.usesGuard(ifs.Cond) {
				f.guards = append(f.guards, ifs)
			}
			return true
		})
		walkFlow(pass.TypesInfo, f, body, resvState{})
	}
}

// lhsType resolves the static type the i'th LHS receives.
func lhsType(pass *Pass, id *ast.Ident, call *ast.CallExpr, i, n int) types.Type {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj.Type()
	}
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj.Type()
	}
	// Blank identifier: take the type from the call's result tuple.
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return nil
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		if i < tuple.Len() {
			return tuple.At(i).Type()
		}
		return nil
	}
	if n == 1 {
		return tv.Type
	}
	return nil
}

// reservationResultIndex returns the index of a reservation-typed
// result of call, or -1.
func reservationResultIndex(pass *Pass, call *ast.CallExpr) int {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil {
		return -1
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isReservationType(tuple.At(i).Type()) {
				return i
			}
		}
		return -1
	}
	if isReservationType(tv.Type) {
		return 0
	}
	return -1
}

func callName(pass *Pass, call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "call"
}

// companionErrObj returns the error variable assigned alongside the
// reservation (the `err` of `rv, err := Reserve(n)`), if any.
func companionErrObj(pass *Pass, lhs []ast.Expr, skip int) types.Object {
	for i, l := range lhs {
		if i == skip {
			continue
		}
		id, ok := unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj != nil && isErrorType(obj.Type()) {
			return obj
		}
	}
	return nil
}

func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

func containsGoto(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.GOTO {
			found = true
		}
		return !found
	})
	return found
}

// ---------------------------------------------------------------------
// The reservation's obligation along the structured walk
// ---------------------------------------------------------------------

type resvState struct {
	pending  bool // reservation live, obligation unmet
	deferred bool // a deferred statement on this path discharges it
}

type resvFlow struct {
	pass    *Pass
	obj     types.Object // the reservation variable
	errObj  types.Object // its companion error, if any
	decl    ast.Stmt     // the creating statement
	scope   ast.Node     // the block or clause holding decl, if decl is in its list
	callPos token.Pos    // position of the Reserve call (report anchor)
	name    string

	// guards are the ifs conditioned on the reservation or its error.
	// On one side of each the reservation is nil: neither side reports,
	// and their paths meet optimistically, or every
	// `if err != nil { return err }` would be flagged.
	guards   []*ast.IfStmt
	reported bool
}

func (f *resvFlow) transfer(s resvState, n ast.Node, role flowRole) resvState {
	switch role {
	case flowStmt, flowComm:
		if n == f.decl {
			return resvState{pending: true, deferred: s.deferred}
		}
		if as, ok := n.(*ast.AssignStmt); ok {
			return f.assign(s, as)
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if e, ok := m.(ast.Expr); ok {
				s = f.scan(s, e, true)
				return false
			}
			return true
		})
	case flowCond:
		return f.scan(s, n.(ast.Expr), false)
	case flowRange, flowResult, flowGo:
		return f.scan(s, n.(ast.Expr), true)
	case flowDefer:
		// defer rv.Release(), defer cleanup(rv), defer func(){...rv...}():
		// the obligation is discharged at function exit for every
		// return that follows this point on the path.
		s.deferred = s.deferred || f.usesObj(n)
	case flowReturn:
		f.leak(s, n.Pos(), "returning")
	case flowEnd:
		if n == f.scope {
			// The variable's scope dies with the obligation unmet.
			end := n.End() // a clause ends with its last statement
			if b, ok := n.(*ast.BlockStmt); ok {
				end = b.List[len(b.List)-1].End()
			}
			f.leak(s, end, "falling off the end of its scope")
		}
	}
	return s
}

func (f *resvFlow) assign(s resvState, as *ast.AssignStmt) resvState {
	for _, l := range as.Lhs {
		if id, ok := unparen(l).(*ast.Ident); ok {
			if f.isObj(id) {
				// Overwritten: if still pending the old value is lost.
				f.leak(s, as.Pos(), "overwriting the reservation")
				s = resvState{pending: false, deferred: s.deferred}
			}
			continue // a plain ident target is not a use of obj
		}
		s = f.scan(s, l, true) // m[k] = ..., x.f = ...: scan for uses
	}
	for _, r := range as.Rhs {
		s = f.scan(s, r, true)
	}
	return s
}

// join merges two paths pessimistically (pending wins, deferred must
// hold on both), except after a guard, where it is the other way round.
func (f *resvFlow) join(at ast.Stmt, a, b resvState) resvState {
	if ifs, ok := at.(*ast.IfStmt); ok && slices.Contains(f.guards, ifs) {
		return resvState{pending: a.pending && b.pending, deferred: a.deferred || b.deferred}
	}
	return resvState{pending: a.pending || b.pending, deferred: a.deferred && b.deferred}
}

// leak reports the reservation once, if it is still owed where the path
// leaves at pos and pos is not inside a guard's branches.
func (f *resvFlow) leak(s resvState, pos token.Pos, what string) {
	if !s.pending || s.deferred || f.reported {
		return
	}
	for _, g := range f.guards {
		if g.Body.Pos() <= pos && pos < g.End() {
			return
		}
	}
	f.reported = true
	leak := f.pass.Fset.Position(pos)
	f.pass.Reportf(f.callPos, "reservation %s does not reach Consume, Release, or Close on the path %s at %s:%d; the set-aside key bits leak",
		f.name, what, leak.Filename, leak.Line)
}

// scan classifies the uses of the reservation inside one expression:
// a call to a terminating method resolves the obligation; any use
// other than a method call or comparison is an escape, which also
// resolves it (ownership moved). Uses inside nested function literals
// are captures, i.e. escapes. rootEscapes says what a bare `rv` as the
// whole expression means in the enclosing statement: an escape when
// the value goes somewhere (return rv, ch <- rv, x = rv), a plain read
// in conditions and tags.
func (f *resvFlow) scan(in resvState, e ast.Expr, rootEscapes bool) resvState {
	st := in
	WalkStack(e, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || !f.isObj(id) {
			return true
		}
		for _, anc := range stack {
			if _, ok := anc.(*ast.FuncLit); ok {
				st.pending = false // captured by a closure: escape
				return true
			}
		}
		switch f.classifyUse(id, stack, rootEscapes) {
		case useTerminating, useEscape:
			st.pending = false
		}
		return true
	})
	return st
}

type useKind int

const (
	usePlain useKind = iota
	useTerminating
	useEscape
)

func (f *resvFlow) classifyUse(id *ast.Ident, stack []ast.Node, rootEscapes bool) useKind {
	i := len(stack) - 1
	for i >= 0 {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			i--
			continue
		}
		break
	}
	if i < 0 {
		if rootEscapes {
			return useEscape
		}
		return usePlain
	}
	switch parent := stack[i].(type) {
	case *ast.SelectorExpr:
		if parent.Sel == id {
			return usePlain // shadow case: obj used as a selector name (impossible for locals)
		}
		// rv.Method — look for the enclosing call of this selector.
		if i-1 >= 0 {
			if call, ok := stack[i-1].(*ast.CallExpr); ok && unparen(call.Fun) == parent {
				if reservationTerminators[parent.Sel.Name] {
					return useTerminating
				}
				return usePlain // rv.Remaining() etc.: observes, does not discharge
			}
		}
		return useEscape // method value rv.Release passed around
	case *ast.BinaryExpr:
		return usePlain // comparisons (rv == nil)
	default:
		return useEscape
	}
}

func (f *resvFlow) isObj(id *ast.Ident) bool {
	return f.pass.TypesInfo.Uses[id] == f.obj
}

func (f *resvFlow) usesObj(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && f.isObj(id) {
			found = true
		}
		return !found
	})
	return found
}

func (f *resvFlow) usesGuard(cond ast.Expr) bool {
	if cond == nil {
		return false
	}
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := f.pass.TypesInfo.Uses[id]
			if obj != nil && (obj == f.obj || (f.errObj != nil && obj == f.errObj)) {
				found = true
			}
		}
		return !found
	})
	return found
}
