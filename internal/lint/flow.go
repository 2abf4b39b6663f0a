package lint

// The structured control-flow walker behind reservepair, lockorder and
// padreuse. It owns every decision about compound statements — which
// expressions a header evaluates, which paths a branch opens, where
// paths meet and which paths never reach the meeting point — and hands
// each analysis only the leaves and header expressions it reaches, in
// evaluation order, with its state for that path. An analysis is a
// state, a join for two paths that meet, and a transfer for one node.

import (
	"go/ast"
	"go/types"
)

// A flowRole says where the walk reached a node.
type flowRole int

const (
	flowStmt   flowRole = iota // a simple statement: assignment, expression, send, inc/dec, declaration
	flowComm                   // a select case's send or receive; the select blocks, not the comm
	flowCond                   // an if or for condition, a switch tag or a case expression
	flowRange                  // the operand of a range statement
	flowResult                 // a result of a return statement
	flowGo                     // the call of a go statement
	flowDefer                  // the call of a defer statement
	flowSelect                 // a select statement, before its cases run
	flowReturn                 // a return statement, after its results
	flowEnd                    // a block or case clause whose statements ran to their end
)

// A flowAnalysis is one analysis run by walkFlow over states of type S.
type flowAnalysis[S any] interface {
	// transfer moves s across node n, reached in role.
	transfer(s S, n ast.Node, role flowRole) S
	// join merges the states of two paths that meet after at, a
	// branching or looping statement.
	join(at ast.Stmt, a, b S) S
}

// walkFlow runs a over a function body, starting from state in.
// Function literals in the body are not entered: they run at a time
// the walk cannot know, and each analysis sees them as expressions.
func walkFlow[S any](info *types.Info, a flowAnalysis[S], body *ast.BlockStmt, in S) {
	flowWalker[S]{info, a}.stmt(body, in)
}

type flowWalker[S any] struct {
	info *types.Info
	a    flowAnalysis[S]
}

// stmt runs one statement from s. dead reports that no path leaves it
// normally: every path returned, broke out, jumped or called a
// function that never returns.
func (w flowWalker[S]) stmt(st ast.Stmt, s S) (S, bool) {
	var dead bool
	switch st := st.(type) {
	case nil:
		return s, false
	case *ast.BlockStmt:
		return w.list(st, st.List, s)
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, s)
	case *ast.IfStmt:
		if s, dead = w.stmt(st.Init, s); dead {
			return s, true
		}
		s = w.expr(s, st.Cond, flowCond)
		then, thenDead := w.stmt(st.Body, s)
		els, elsDead := s, false
		if st.Else != nil {
			els, elsDead = w.stmt(st.Else, s)
		}
		return w.meet(st, then, thenDead, els, elsDead)
	case *ast.ForStmt:
		if s, dead = w.stmt(st.Init, s); dead {
			return s, true
		}
		s = w.expr(s, st.Cond, flowCond)
		body, _ := w.stmt(st.Body, s)
		body, _ = w.stmt(st.Post, body)
		return w.a.join(st, s, body), false // the body may run zero times
	case *ast.RangeStmt:
		s = w.expr(s, st.X, flowRange)
		body, _ := w.stmt(st.Body, s)
		return w.a.join(st, s, body), false
	case *ast.SwitchStmt:
		if s, dead = w.stmt(st.Init, s); dead {
			return s, true
		}
		return w.cases(st, st.Body, w.expr(s, st.Tag, flowCond), true)
	case *ast.TypeSwitchStmt:
		if s, dead = w.stmt(st.Init, s); dead {
			return s, true
		}
		if s, dead = w.stmt(st.Assign, s); dead {
			return s, true
		}
		return w.cases(st, st.Body, s, true)
	case *ast.SelectStmt:
		return w.cases(st, st.Body, w.a.transfer(s, st, flowSelect), false)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			s = w.expr(s, r, flowResult)
		}
		return w.a.transfer(s, st, flowReturn), true
	case *ast.BranchStmt:
		return s, true
	case *ast.DeferStmt:
		return w.expr(s, st.Call, flowDefer), false
	case *ast.GoStmt:
		return w.expr(s, st.Call, flowGo), false
	}
	s = w.a.transfer(s, st, flowStmt)
	es, ok := st.(*ast.ExprStmt)
	return s, ok && divergesCall(w.info, es.X)
}

// list runs the statements of n, a block or case clause, in order.
func (w flowWalker[S]) list(n ast.Node, stmts []ast.Stmt, s S) (S, bool) {
	for _, st := range stmts {
		var dead bool
		if s, dead = w.stmt(st, s); dead {
			return s, true
		}
	}
	return w.a.transfer(s, n, flowEnd), false
}

// cases runs each clause of a switch or select from state s and merges
// the paths that leave them. implicit adds the path on which no clause
// runs, which a switch without a default has.
func (w flowWalker[S]) cases(at ast.Stmt, body *ast.BlockStmt, s S, implicit bool) (S, bool) {
	out, dead := s, true
	for _, c := range body.List {
		cs, csDead := s, false
		switch c := c.(type) {
		case *ast.CaseClause:
			implicit = implicit && c.List != nil
			for _, e := range c.List {
				cs = w.expr(cs, e, flowCond)
			}
			cs, csDead = w.list(c, c.Body, cs)
		case *ast.CommClause:
			if c.Comm != nil {
				cs = w.a.transfer(cs, c.Comm, flowComm)
			}
			cs, csDead = w.list(c, c.Body, cs)
		}
		out, dead = w.meet(at, out, dead, cs, csDead)
	}
	if implicit {
		out, dead = w.meet(at, out, dead, s, false)
	}
	return out, dead
}

// meet merges two paths at at; a dead path never reaches it.
func (w flowWalker[S]) meet(at ast.Stmt, a S, aDead bool, b S, bDead bool) (S, bool) {
	switch {
	case aDead:
		return b, bDead
	case bDead:
		return a, false
	}
	return w.a.join(at, a, b), false
}

func (w flowWalker[S]) expr(s S, e ast.Expr, role flowRole) S {
	if e == nil {
		return s
	}
	return w.a.transfer(s, e, role)
}

// divergesCall reports whether the expression statement never returns:
// panic, os.Exit, runtime.Goexit, log.Fatal*, and testing's
// Fatal/FailNow/Skip family.
func divergesCall(info *types.Info, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			return b.Name() == "panic"
		}
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		if fn == nil {
			return false
		}
		if pkg := fn.Pkg(); pkg != nil && fn.Type().(*types.Signature).Recv() == nil {
			switch pkg.Path() + "." + fn.Name() {
			case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
				return true
			}
			return false
		}
		switch fn.Name() {
		case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow", "Goexit":
			return true
		}
	}
	return false
}
