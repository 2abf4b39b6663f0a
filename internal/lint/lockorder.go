package lint

// lockorder: infer the global acquisition order among the module's
// named locks and flag the two deadlock shapes the per-function
// analyzers cannot see.
//
// Every sync.Mutex/RWMutex acquisition is resolved to a lock CLASS —
// "pkg.Type.field" for struct fields (one class per field, so every
// element of a striped lock array shares it), "pkg.var" for
// package-level locks. A structured walk of each function tracks the
// ordered set of classes held; each acquisition while others are held
// records a held→acquired edge. Edges propagate through FuncSummary
// facts, so a lock taken three calls deep — in another package — still
// orders against the caller's held set. The merged edge graph is then
// checked for:
//
//   - AB/BA cycles (including same-class self-nesting), reported once
//     per cycle across the whole module via the ReportedCycles fact;
//   - any lock held across a blocking operation: channel send/receive,
//     select without default, WaitGroup.Wait, time.Sleep, or a
//     blocking key withdrawal (Consume/Claim with a timeout).
//     sync.Cond.Wait is exempt (it releases its lock).
//
// Deliberate exceptions are annotated in source at the acquisition or
// blocking site:
//
//	//lint:lockorder <reason>
//
// which excludes that site's edges from cycle detection and excuses
// its holder from held-across-blocking reports. A directive without a
// reason does not justify.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// LockOrder reports lock-order cycles and locks held across blocking
// operations.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "acquisition order among named locks (keypool, kms service, ipsec SAD, vpn rekeyer, " +
		"flow controller) must be acyclic, and no lock may be held across a channel " +
		"operation, Wait, sleep, or blocking key withdrawal; deliberate exceptions carry " +
		"//lint:lockorder justifications",
	Run: runLockOrder,
}

func runLockOrder(p *Pass) error {
	for _, d := range p.IP.lockDiags {
		p.Report(d)
	}
	reportCycles(p.IP, p)
	return nil
}

// ---------------------------------------------------------------------
// Lock classification
// ---------------------------------------------------------------------

// lockOpOf recognizes sync.Mutex/RWMutex Lock/RLock/Unlock/RUnlock
// calls and resolves the receiver to a lock class. class is "" when
// the lock is anonymous (a local mutex with no named home).
func (ip *IPContext) lockOpOf(call *ast.CallExpr) (class, op string, ok bool) {
	fn := calleeFunc(ip.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	recv := ""
	if sig, k := fn.Type().(*types.Signature); k && sig.Recv() != nil {
		recv = recvTypeName(sig.Recv().Type())
	}
	if recv != "Mutex" && recv != "RWMutex" {
		return "", "", false
	}
	sel, k := unparen(call.Fun).(*ast.SelectorExpr)
	if !k {
		return "", "", false
	}
	return ip.lockClassOf(sel, recv), fn.Name(), true
}

// lockClassOf names the lock behind a Lock/Unlock selector. mutexType
// is "Mutex" or "RWMutex" (used to name embedded locks).
func (ip *IPContext) lockClassOf(sel *ast.SelectorExpr, mutexType string) string {
	switch x := unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		// r.mu.Lock(), s.shards[i].mu.Lock(): a named field of a named
		// struct is the canonical case.
		if fsel, ok := ip.Info.Selections[x]; ok && fsel.Kind() == types.FieldVal {
			obj := fsel.Obj()
			holder := recvTypeName(fsel.Recv())
			if obj.Pkg() != nil && holder != "" {
				return obj.Pkg().Name() + "." + holder + "." + obj.Name()
			}
			return ""
		}
		// pkg.mu.Lock(): a package-qualified top-level lock.
		if v, ok := ip.Info.Uses[x.Sel].(*types.Var); ok && isPkgLevel(v) {
			return v.Pkg().Name() + "." + v.Name()
		}
	case *ast.Ident:
		v, ok := ip.Info.Uses[x].(*types.Var)
		if !ok {
			return ""
		}
		if isPkgLevel(v) {
			return v.Pkg().Name() + "." + v.Name()
		}
		// t.Lock() on a local whose type embeds the mutex: name the
		// embedding type. A bare local sync.Mutex has no class.
		if msel, ok := ip.Info.Selections[sel]; ok {
			if named := namedOf(msel.Recv()); named != nil && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() != "sync" {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + mutexType
			}
		}
	}
	return ""
}

func isPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// blockingWithdrawal recognizes the module's blocking key-withdrawal
// APIs by shape: a Consume/Claim-family method in a key-plane package
// taking a timeout.
func blockingWithdrawal(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Name() {
	case "keypool", "kms":
	default:
		return ""
	}
	switch fn.Name() {
	case "Consume", "ConsumeCancelable", "Claim", "Next", "AllocateWait":
	default:
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !hasDurationParam(sig) {
		return ""
	}
	return "blocking " + methodKeyOf(fn).String()
}

func hasDurationParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if named := namedOf(sig.Params().At(i).Type()); named != nil {
			obj := named.Obj()
			if obj.Name() == "Duration" && obj.Pkg() != nil && obj.Pkg().Path() == "time" {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------
// The held set along the structured walk
// ---------------------------------------------------------------------

type heldLock struct {
	class     string
	pos       token.Pos
	shared    bool // RLock
	justified bool
}

// lockFlow walks one function with the ordered list of locks held as
// its state. Lists are never appended to in place, so paths share them
// safely.
type lockFlow struct {
	ip     *IPContext
	fs     *FuncSummary
	report bool
}

// summarizeLocks folds fi's lock behavior into its FuncSummary;
// called repeatedly by the BuildIP fixpoint.
func summarizeLocks(ip *IPContext, fi *funcInfo) {
	walkFlow(ip.Info, &lockFlow{ip: ip, fs: ip.Local[fi.key]}, fi.body, []heldLock(nil))
}

// reportLocks re-walks fi emitting held-across-blocking diagnostics,
// once the summaries have converged.
func reportLocks(ip *IPContext, fi *funcInfo) {
	walkFlow(ip.Info, &lockFlow{ip: ip, fs: ip.Local[fi.key], report: true}, fi.body, []heldLock(nil))
}

func (lf *lockFlow) transfer(held []heldLock, n ast.Node, role flowRole) []heldLock {
	switch role {
	case flowStmt:
		held = lf.visit(held, n, nil)
		if send, ok := n.(*ast.SendStmt); ok {
			lf.blocking(held, "channel send", send.Pos(), nil)
		}
	case flowComm:
		// The select blocks, not its comm: the comm's own send or
		// receive is not a blocking operation; the calls in it are.
		var recv ast.Node
		switch c := n.(type) {
		case *ast.ExprStmt:
			recv = unparen(c.X)
		case *ast.AssignStmt:
			recv = unparen(c.Rhs[0])
		}
		held = lf.visit(held, n, recv)
	case flowCond, flowResult:
		held = lf.visit(held, n, nil)
	case flowRange:
		held = lf.visit(held, n, nil)
		if t, ok := lf.ip.Info.Types[n.(ast.Expr)]; ok {
			if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
				lf.blocking(held, "range over channel", n.Pos(), nil)
			}
		}
	case flowSelect:
		for _, c := range n.(*ast.SelectStmt).Body.List {
			if c.(*ast.CommClause).Comm == nil {
				return held // a default makes the select non-blocking
			}
		}
		lf.blocking(held, "select", n.Pos(), nil)
	case flowGo, flowDefer:
		// A go statement's call runs concurrently, not under this held
		// set (a literal is summarized as its own function). Deferred
		// work runs after the body, and a deferred Unlock keeps its lock
		// held for the rest of it, which is what not popping it models.
	}
	return held
}

// join keeps the locks held on both paths, in the first path's order.
func (lf *lockFlow) join(_ ast.Stmt, a, b []heldLock) []heldLock {
	var both []heldLock
	taken := make([]bool, len(b))
	for _, h := range a {
		for i, g := range b {
			if !taken[i] && g.class == h.class {
				taken[i] = true
				both = append(both, h)
				break
			}
		}
	}
	return both
}

// visit scans n for calls and channel receives, without crossing into
// function literals (separate funcInfos). A receive that is recv does
// not block.
func (lf *lockFlow) visit(held []heldLock, n, recv ast.Node) []heldLock {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			held = lf.call(held, m)
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && m != recv {
				lf.blocking(held, "channel receive", m.Pos(), nil)
			}
		}
		return true
	})
	return held
}

func (lf *lockFlow) call(held []heldLock, call *ast.CallExpr) []heldLock {
	if class, op, ok := lf.ip.lockOpOf(call); ok {
		return lf.lockOp(held, call, class, op)
	}
	fn := calleeFunc(lf.ip.Info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
		// Cond.Wait releases its lock while parked; exempt.
		if fn.Name() == "Wait" && recvNamed(fn) == "WaitGroup" {
			lf.blocking(held, "WaitGroup.Wait", call.Pos(), nil)
		}
		return held
	}
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
		lf.blocking(held, "time.Sleep", call.Pos(), nil)
		return held
	}
	if op := blockingWithdrawal(fn); op != "" {
		lf.blocking(held, op, call.Pos(), nil)
		// Fall through: its summary may also carry acquires.
	}
	justifiedHere := lf.ip.lockorderJustifiedAt(call.Pos())
	for _, sum := range lf.ip.resolveCall(call) {
		frame := lf.ip.frame(sum.Name, call.Pos())
		for _, acq := range sum.Acquires {
			lf.fs.addAcquire(acq.Lock, extendPath(frame, acq.Path))
			for _, h := range held {
				// h.class == acq.Lock is kept: holding A while a callee
				// locks A is the self-deadlock only the caller can see.
				lf.fs.addEdge(LockEdge{
					From:      h.class,
					To:        acq.Lock,
					Pos:       lf.posString(call.Pos()),
					Path:      extendPath(frame, acq.Path),
					Justified: h.justified || justifiedHere,
				})
			}
		}
		for _, b := range sum.Blocks {
			lf.fs.addBlock(b.Op, extendPath(frame, b.Path))
			lf.blocking(held, b.Op, call.Pos(), extendPath(frame, b.Path))
		}
	}
	return held
}

func recvNamed(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return recvTypeName(sig.Recv().Type())
	}
	return ""
}

func (lf *lockFlow) lockOp(held []heldLock, call *ast.CallExpr, class, op string) []heldLock {
	if class == "" {
		return held
	}
	switch op {
	case "Lock", "RLock":
		justified := lf.ip.lockorderJustifiedAt(call.Pos())
		lf.fs.addAcquire(class, []string{lf.ip.frame(class+"."+op, call.Pos())})
		for _, h := range held {
			if h.class == class && h.shared && op == "RLock" {
				continue // shared re-acquisition cannot self-deadlock alone
			}
			lf.fs.addEdge(LockEdge{
				From:      h.class,
				To:        class,
				Pos:       lf.posString(call.Pos()),
				Justified: h.justified || justified,
			})
		}
		return append(held[:len(held):len(held)], heldLock{class: class, pos: call.Pos(), shared: op == "RLock", justified: justified})
	case "Unlock", "RUnlock":
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].class == class {
				return append(held[:i:i], held[i+1:]...)
			}
		}
	}
	return held
}

// blocking handles one blocking operation at pos: the function is
// recorded as blocking, and in report mode any lock held here is a
// diagnostic (unless the hold or the site carries a justification).
func (lf *lockFlow) blocking(held []heldLock, op string, pos token.Pos, path []string) {
	ownPath := path
	if ownPath == nil {
		ownPath = []string{lf.ip.frame(op, pos)}
	}
	lf.fs.addBlock(op, ownPath)
	if !lf.report || len(held) == 0 || lf.ip.lockorderJustifiedAt(pos) {
		return
	}
	for _, h := range held {
		if h.justified {
			continue
		}
		lf.ip.addLockDiag(Diagnostic{
			Pos:     pos,
			Message: fmt.Sprintf("%s held across %s", h.class, op),
			Path:    append([]string{"acquired: " + lf.ip.frame(h.class, h.pos)}, path...),
		})
	}
}

func (lf *lockFlow) posString(pos token.Pos) string {
	posn := lf.ip.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(posn.Filename), posn.Line)
}

func (ip *IPContext) addLockDiag(d Diagnostic) {
	var key string
	if d.Posn != nil {
		key = fmt.Sprintf("%s:%d|%s", d.Posn.Filename, d.Posn.Line, d.Message)
	} else {
		key = fmt.Sprintf("%d|%s", d.Pos, d.Message)
	}
	if ip.lockSeen == nil {
		ip.lockSeen = make(map[string]bool)
	}
	if ip.lockSeen[key] {
		return
	}
	ip.lockSeen[key] = true
	ip.lockDiags = append(ip.lockDiags, d)
}

// ---------------------------------------------------------------------
// Cycle detection over the merged edge graph
// ---------------------------------------------------------------------

type orderEdge struct {
	e     LockEdge
	local bool
}

// reportCycles merges every known lock edge (dependencies + this
// package), finds self-nesting and AB/BA…/A cycles, and reports each
// once per module run: the ReportedCycles fact marks cycles already
// diagnosed somewhere in the dependency closure.
func reportCycles(ip *IPContext, p *Pass) {
	edges := make(map[string]orderEdge)
	addAll := func(s map[string]*FuncSummary, local bool) {
		names := make([]string, 0, len(s))
		for name := range s {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, e := range s[name].Edges {
				if e.Justified {
					continue
				}
				key := e.From + "|" + e.To
				if have, ok := edges[key]; ok && (have.local || !local) {
					continue
				}
				edges[key] = orderEdge{e: e, local: local}
			}
		}
	}
	addAll(ip.Deps.Funcs, false)
	addAll(ip.Local, true)

	// Self-nesting: a class acquired while already held. Anchored at
	// the inner acquisition. The package that first observed the edge
	// reported it and recorded the signature, so dependents skip it.
	keys := make([]string, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	adj := make(map[string][]string)
	for _, k := range keys {
		oe := edges[k]
		if oe.e.From == oe.e.To {
			sig := oe.e.From + "→" + oe.e.To
			if !ip.reportedCycles[sig] {
				ip.reportedCycles[sig] = true
				p.Report(Diagnostic{
					Posn:    parsePos(oe.e.Pos),
					Message: fmt.Sprintf("lock %s acquired while already held", oe.e.From),
					Path:    oe.e.Path,
				})
			}
			continue
		}
		adj[oe.e.From] = append(adj[oe.e.From], oe.e.To)
	}
	for _, tos := range adj {
		sort.Strings(tos)
	}

	starts := make([]string, 0, len(adj))
	for from := range adj {
		starts = append(starts, from)
	}
	sort.Strings(starts)

	// Enumerate elementary cycles: DFS from each start, restricted to
	// nodes ≥ start so every cycle is found exactly once, rooted at
	// its least node.
	for _, start := range starts {
		var path []string
		onPath := map[string]bool{}
		var dfs func(node string)
		dfs = func(node string) {
			path = append(path, node)
			onPath[node] = true
			for _, next := range adj[node] {
				if next == start {
					reportCycle(ip, p, edges, append(append([]string(nil), path...), start))
					continue
				}
				if next < start || onPath[next] {
					continue
				}
				dfs(next)
			}
			onPath[node] = false
			path = path[:len(path)-1]
		}
		dfs(start)
	}
}

// reportCycle emits one cycle (nodes[0] == nodes[len-1]) unless the
// dependency closure already did. The diagnostic anchors at a
// locally-observed edge when one exists and prints every edge with
// its position and call path.
func reportCycle(ip *IPContext, p *Pass, edges map[string]orderEdge, nodes []string) {
	sig := strings.Join(nodes, "→")
	if ip.reportedCycles[sig] {
		return
	}
	ip.reportedCycles[sig] = true

	// Anchor at a locally-observed edge when one exists (the position
	// is in this package's files); a cycle assembled purely from
	// dependency edges — the AB in one package, the BA in another,
	// merged here for the first time — anchors at its first edge.
	var anchor *token.Position
	var pathOut []string
	for i := 0; i+1 < len(nodes); i++ {
		oe := edges[nodes[i]+"|"+nodes[i+1]]
		if oe.local && anchor == nil {
			anchor = parsePos(oe.e.Pos)
		}
		line := fmt.Sprintf("%s → %s at %s", oe.e.From, oe.e.To, oe.e.Pos)
		pathOut = append(pathOut, line)
		for _, f := range oe.e.Path {
			pathOut = append(pathOut, "\t"+f)
		}
	}
	if anchor == nil {
		anchor = parsePos(edges[nodes[0]+"|"+nodes[1]].e.Pos)
	}
	p.Report(Diagnostic{
		Posn:    anchor,
		Message: "lock-order cycle: " + strings.Join(nodes, " → "),
		Path:    pathOut,
	})
}

// parsePos turns a serialized "file.go:123" back into a Position for
// diagnostics anchored in dependency packages.
func parsePos(s string) *token.Position {
	posn := &token.Position{}
	if i := strings.LastIndexByte(s, ':'); i >= 0 {
		posn.Filename = s[:i]
		if n, err := strconv.Atoi(s[i+1:]); err == nil {
			posn.Line = n
		}
	} else {
		posn.Filename = s
	}
	return posn
}
