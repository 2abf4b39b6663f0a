package lint

// keytaint: key material must never leave the sanctioned plane.
//
// The paper's security argument is information-theoretic only while
// the pad bytes stay secret from withdrawal to XOR; one debug line
// that formats a key buffer voids it silently. This analyzer tracks
// every value derived from a key-material source — reservoir and KMS
// withdrawals, distilled-key buffers, SA pad/key fields — through
// assignments, slicing, append/copy, and summarized calls, and
// reports any flow into a forbidden sink: fmt/log formatting,
// errors.New, string conversions, test assertion helpers, or storage
// in a struct field outside the sanctioned key-storage plane. The
// sanctioned consumers (OTP XOR via subtle.XORBytes, Wegman-Carter
// tagging, hmac.New keying, zeroizing wipes) absorb taint naturally:
// XOR and other binary operators kill taint (that is the one-time-pad
// property itself), and unsummarized stdlib callees neither propagate
// nor sink it.
//
// Flows cross function and package boundaries through FuncSummary
// facts (see interproc.go): a helper that leaks its parameter is
// summarized as a ParamSink, and every caller passing key material in
// — even from another package — reports with the full source→sink
// call path attached.
//
// Intrinsic tables below match packages by NAME (keypool, kms,
// bitarray, ipsec), not import path, so the want-annotated corpora
// under testdata/src exercise the same code paths as the real tree.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// KeyTaint reports key material reaching unsanctioned sinks.
var KeyTaint = &Analyzer{
	Name: "keytaint",
	Doc: "key material (reservoir/KMS withdrawals, distilled keys, SA pad and key fields) " +
		"must only reach sanctioned consumers; flows into fmt/log/errors.New, string " +
		"conversions, test assertion messages, or unsanctioned struct fields are reported " +
		"with the full source→sink call path",
	Run: runKeyTaint,
}

func runKeyTaint(p *Pass) error {
	for _, d := range p.IP.taintDiags {
		p.Report(d)
	}
	return nil
}

// ---------------------------------------------------------------------
// Intrinsic tables
// ---------------------------------------------------------------------

// memberKey identifies pkgName.Type.member; Typ is "" for
// package-level functions.
type memberKey struct{ Pkg, Typ, Name string }

// secretMethods are the key-material sources: calling one taints the
// listed result indices. These are the module's withdrawal APIs plus
// the distillation output.
var secretMethods = map[memberKey][]int{
	{"keypool", "Reservoir", "TryConsume"}: {0},
	{"keypool", "Reservoir", "Withdraw"}:   {0},
	{"keypool", "Reservation", "Consume"}:  {0},
	{"kms", "PoolView", "TryConsume"}:      {0},
	{"kms", "PoolView", "Consume"}:         {0},
	{"kms", "Stream", "Claim"}:             {0},
	{"kms", "Stream", "Next"}:              {1},
	{"privacy", "Params", "Apply"}:         {0}, // distilled key output
}

// flowMethods are value-preserving transforms: the listed parameter
// (-1 = receiver) flows to the listed result. Principally the
// bitarray views, so key.Bytes() is as tainted as key.
var flowMethods = map[memberKey][]TaintFlow{
	{"bitarray", "BitArray", "Bytes"}:     {{-1, 0}},
	{"bitarray", "BitArray", "Words"}:     {{-1, 0}},
	{"bitarray", "BitArray", "Clone"}:     {{-1, 0}},
	{"bitarray", "BitArray", "Slice"}:     {{-1, 0}},
	{"bitarray", "BitArray", "Compress"}:  {{-1, 0}},
	{"bitarray", "BitArray", "Select"}:    {{-1, 0}},
	{"bitarray", "BitArray", "SelectU32"}: {{-1, 0}},
	{"bitarray", "BitArray", "String"}:    {{-1, 0}},
	{"bitarray", "", "FromBytes"}:         {{0, 0}},
	{"bitarray", "", "FromBools"}:         {{0, 0}},
	{"bitarray", "", "FromWords"}:         {{0, 0}},
}

// secretFields is the sanctioned key-storage plane: reading one of
// these fields yields key material (a taint source); writing key
// material into one is the sanctioned way to persist it. Writing
// tainted data into any OTHER struct field is a diagnostic.
var secretFields = map[memberKey]bool{
	{"auth", "MAC", "hash"}:            true, // a *gf2.PolyHash: the key as tables
	{"ipsec", "SA", "pad"}:             true,
	{"ipsec", "SA", "wc"}:              true, // a *gf2.PolyHash: the key as tables
	{"keypool", "Reservoir", "buf"}:    true,
	{"keypool", "Reservation", "bits"}: true,
}

// methodKeyOf returns the intrinsic-table key for fn.
func methodKeyOf(fn *types.Func) memberKey {
	if fn == nil || fn.Pkg() == nil {
		return memberKey{}
	}
	k := memberKey{Pkg: fn.Pkg().Name(), Name: fn.Name()}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		k.Typ = recvTypeName(sig.Recv().Type())
	}
	return k
}

func (k memberKey) String() string {
	if k.Typ == "" {
		return k.Pkg + "." + k.Name
	}
	return k.Pkg + "." + k.Typ + "." + k.Name
}

// sinkNameFor classifies fn as a forbidden sink ("" if it is not
// one). Stdlib sinks match by import path; testing helpers by method
// set.
func sinkNameFor(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "fmt":
		return "fmt." + fn.Name()
	case "log":
		return "log." + fn.Name()
	case "errors":
		if fn.Name() == "New" {
			return "errors.New"
		}
	case "testing":
		switch fn.Name() {
		case "Error", "Errorf", "Fatal", "Fatalf", "Log", "Logf", "Skip", "Skipf":
			return "testing." + fn.Name()
		}
	}
	return ""
}

// isBitArrayPtr reports whether t is *bitarray.BitArray.
func isBitArrayPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "BitArray" && obj.Pkg() != nil && obj.Pkg().Name() == "bitarray"
}

// taintableType reports whether values of t can carry key material:
// byte slices/arrays, strings, and bitarray views. Parameters of
// other types are never seeded, keeping the analysis about key BYTES,
// not every struct that mentions them.
func taintableType(t types.Type) bool {
	if t == nil {
		return false
	}
	if isBitArrayPtr(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return isByteType(u.Elem())
	case *types.Array:
		return isByteType(u.Elem())
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

func isByteType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Uint64)
}

// ---------------------------------------------------------------------
// Taint engine
// ---------------------------------------------------------------------

// paramNone marks a source-rooted origin (vs a parameter index).
const paramNone = -2

// taintOrigin is one reason a value is tainted: either it derives
// from parameter `param` (for summary building) or from a concrete
// source `src` observed at `pos` (for diagnostics). path carries the
// frames between this function and a deeper source.
type taintOrigin struct {
	param int
	src   string
	pos   token.Pos
	path  []string
}

type taintState struct {
	ip      *IPContext
	fi      *funcInfo
	fs      *FuncSummary
	origins map[types.Object][]taintOrigin
	changed bool
	report  bool
}

// summarizeTaint folds fi's taint behavior into its FuncSummary. Run
// repeatedly by the BuildIP fixpoint; silent (no diagnostics).
func summarizeTaint(ip *IPContext, fi *funcInfo) {
	st := newTaintState(ip, fi)
	st.run()
}

// reportTaint re-derives fi's final taint state and emits the
// diagnostics. Called once, after the summary fixpoint converges.
func reportTaint(ip *IPContext, fi *funcInfo) {
	st := newTaintState(ip, fi)
	st.run()
	st.report = true
	ast.Inspect(fi.body, st.visit)
}

func newTaintState(ip *IPContext, fi *funcInfo) *taintState {
	st := &taintState{
		ip:      ip,
		fi:      fi,
		fs:      ip.Local[fi.key],
		origins: make(map[types.Object][]taintOrigin),
	}
	for i, obj := range fi.params {
		if obj != nil && taintableType(obj.Type()) {
			st.addOrigin(obj, taintOrigin{param: i})
		}
	}
	if fi.recv != nil && taintableType(fi.recv.Type()) {
		st.addOrigin(fi.recv, taintOrigin{param: -1})
	}
	return st
}

// run iterates the body walk until the origin map stops growing, so
// uses before definitions (loops, mutual local flows) converge.
func (st *taintState) run() {
	for i := 0; i < 10; i++ {
		st.changed = false
		ast.Inspect(st.fi.body, st.visit)
		if !st.changed {
			break
		}
	}
}

func (st *taintState) addOrigin(obj types.Object, o taintOrigin) {
	if obj == nil {
		return
	}
	for _, have := range st.origins[obj] {
		if have.param == o.param && have.src == o.src {
			return
		}
	}
	st.origins[obj] = append(st.origins[obj], o)
	st.changed = true
}

func (st *taintState) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		// Literal bodies are separate funcInfos; do not double-walk.
		return n == st.fi.lit
	case *ast.AssignStmt:
		st.assign(n)
	case *ast.ValueSpec:
		st.valueSpec(n)
	case *ast.RangeStmt:
		if len(st.taintOf(n.X)) > 0 {
			if id, ok := n.Value.(*ast.Ident); ok {
				st.addOrigins(id, st.taintOf(n.X))
			}
		}
	case *ast.ReturnStmt:
		st.returnStmt(n)
	case *ast.CallExpr:
		st.checkCall(n)
	}
	return true
}

func (st *taintState) addOrigins(id *ast.Ident, origins []taintOrigin) {
	obj := st.ip.Info.Defs[id]
	if obj == nil {
		obj = st.ip.Info.Uses[id]
	}
	for _, o := range origins {
		st.addOrigin(obj, o)
	}
}

func (st *taintState) assign(n *ast.AssignStmt) {
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		// Op-assignments (^=, +=, …) mix, and mixing kills taint:
		// that is the pad's own security property.
		return
	}
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		if call, ok := unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			for i, lhs := range n.Lhs {
				st.assignTo(lhs, st.resultTaint(call, i))
			}
		}
		return
	}
	for i, lhs := range n.Lhs {
		if i < len(n.Rhs) {
			st.assignTo(lhs, st.taintOf(n.Rhs[i]))
		}
	}
}

func (st *taintState) valueSpec(n *ast.ValueSpec) {
	if len(n.Values) == 1 && len(n.Names) > 1 {
		if call, ok := unparen(n.Values[0]).(*ast.CallExpr); ok {
			for i, name := range n.Names {
				st.addOrigins(name, st.resultTaint(call, i))
			}
		}
		return
	}
	for i, name := range n.Names {
		if i < len(n.Values) {
			st.addOrigins(name, st.taintOf(n.Values[i]))
		}
	}
}

// assignTo propagates taint into an assignment target. A write into a
// struct field outside the sanctioned key-storage plane is the
// "persisted struct" sink.
func (st *taintState) assignTo(lhs ast.Expr, origins []taintOrigin) {
	if len(origins) == 0 {
		return
	}
	switch lhs := unparen(lhs).(type) {
	case *ast.Ident:
		st.addOrigins(lhs, origins)
	case *ast.IndexExpr:
		st.assignTo(lhs.X, origins)
	case *ast.StarExpr:
		st.assignTo(lhs.X, origins)
	case *ast.SelectorExpr:
		if sel, ok := st.ip.Info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			if fk, secret := st.fieldKey(lhs, sel); !secret {
				st.sinkHit(lhs.Pos(), "struct field "+fk.String(), origins, nil)
			}
		}
	}
}

// fieldKey resolves a field selection to its table key and whether it
// is in the sanctioned plane.
func (st *taintState) fieldKey(sel *ast.SelectorExpr, selection *types.Selection) (memberKey, bool) {
	obj := selection.Obj()
	k := memberKey{Name: obj.Name(), Typ: recvTypeName(selection.Recv())}
	if obj.Pkg() != nil {
		k.Pkg = obj.Pkg().Name()
	}
	return k, secretFields[k]
}

func (st *taintState) returnStmt(n *ast.ReturnStmt) {
	if len(n.Results) == 0 {
		// Naked return: named results carry whatever they hold.
		for i, obj := range st.fi.results {
			st.recordResultTaint(i, st.origins[obj])
		}
		return
	}
	if len(n.Results) == 1 && st.numResults() > 1 {
		if call, ok := unparen(n.Results[0]).(*ast.CallExpr); ok {
			for i := 0; i < st.numResults(); i++ {
				st.recordResultTaint(i, st.resultTaint(call, i))
			}
		}
		return
	}
	for i, e := range n.Results {
		st.recordResultTaint(i, st.taintOf(e))
	}
}

func (st *taintState) numResults() int {
	if st.fi.decl != nil && st.fi.decl.Type.Results != nil {
		return st.fi.decl.Type.Results.NumFields()
	}
	if st.fi.lit != nil && st.fi.lit.Type.Results != nil {
		return st.fi.lit.Type.Results.NumFields()
	}
	return 0
}

func (st *taintState) recordResultTaint(i int, origins []taintOrigin) {
	for _, o := range origins {
		if o.param == paramNone {
			if st.fs.addSecretResult(i) {
				st.changed = true
			}
		} else if st.fs.addFlow(o.param, i) {
			st.changed = true
		}
	}
}

// taintOf computes the origins of expr's (first) value.
func (st *taintState) taintOf(expr ast.Expr) []taintOrigin {
	switch e := unparen(expr).(type) {
	case *ast.Ident:
		obj := st.ip.Info.Uses[e]
		if obj == nil {
			obj = st.ip.Info.Defs[e]
		}
		return st.origins[obj]
	case *ast.SliceExpr:
		return st.taintOf(e.X)
	case *ast.IndexExpr:
		return st.taintOf(e.X)
	case *ast.StarExpr:
		return st.taintOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return st.taintOf(e.X)
		}
	case *ast.SelectorExpr:
		if sel, ok := st.ip.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if fk, secret := st.fieldKey(e, sel); secret {
				return []taintOrigin{{param: paramNone, src: fk.String(), pos: e.Pos()}}
			}
		}
	case *ast.CallExpr:
		return st.resultTaint(e, 0)
	}
	return nil
}

// resultTaint computes the origins of result idx of a call.
func (st *taintState) resultTaint(call *ast.CallExpr, idx int) []taintOrigin {
	// Conversions propagate; []byte(key) is still the key.
	if tv, ok := st.ip.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return st.taintOf(call.Args[0])
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := st.ip.Info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				var out []taintOrigin
				for _, a := range call.Args {
					out = append(out, st.taintOf(a)...)
				}
				return out
			}
			return nil
		}
	}
	fn := calleeFunc(st.ip.Info, call)
	if fn == nil {
		return nil
	}
	var out []taintOrigin
	mk := methodKeyOf(fn)
	for _, r := range secretMethods[mk] {
		if r == idx {
			out = append(out, taintOrigin{param: paramNone, src: mk.String(), pos: call.Pos()})
		}
	}
	for _, f := range flowMethods[mk] {
		if f.Result == idx {
			for _, arg := range st.argsForParam(call, fn, f.Param) {
				out = append(out, st.taintOf(arg)...)
			}
		}
	}
	for _, sum := range st.ip.resolveCall(call) {
		for _, r := range sum.SecretResults {
			if r == idx {
				out = append(out, taintOrigin{
					param: paramNone,
					src:   shortName(sum.Name),
					pos:   call.Pos(),
				})
			}
		}
		for _, f := range sum.ParamToResult {
			if f.Result == idx {
				for _, arg := range st.argsForParam(call, fn, f.Param) {
					out = append(out, st.taintOf(arg)...)
				}
			}
		}
	}
	return out
}

// argsForParam maps a callee parameter index (-1 = receiver) back to
// the caller-side expressions feeding it; a variadic tail parameter
// collects every trailing argument.
func (st *taintState) argsForParam(call *ast.CallExpr, fn *types.Func, param int) []ast.Expr {
	if param == -1 {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			return []ast.Expr{sel.X}
		}
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || param < 0 || param >= sig.Params().Len() {
		return nil
	}
	if sig.Variadic() && param == sig.Params().Len()-1 {
		if param < len(call.Args) {
			return call.Args[param:]
		}
		return nil
	}
	if param < len(call.Args) {
		return []ast.Expr{call.Args[param]}
	}
	return nil
}

// checkCall looks for sink hits: string conversions, intrinsic
// fmt/log/errors/testing sinks, and summarized callees that leak a
// parameter somewhere beneath them.
func (st *taintState) checkCall(call *ast.CallExpr) {
	if tv, ok := st.ip.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			if origins := st.taintOf(call.Args[0]); len(origins) > 0 {
				st.sinkHit(call.Pos(), "string conversion", origins, nil)
			}
		}
		return
	}
	fn := calleeFunc(st.ip.Info, call)
	if fn == nil {
		return
	}
	if sink := sinkNameFor(fn); sink != "" {
		for _, arg := range call.Args {
			if origins := st.taintOf(arg); len(origins) > 0 {
				st.sinkHit(arg.Pos(), sink, origins, nil)
			}
		}
		return
	}
	for _, sum := range st.ip.resolveCall(call) {
		for _, ps := range sum.ParamSinks {
			for _, arg := range st.argsForParam(call, fn, ps.Param) {
				if origins := st.taintOf(arg); len(origins) > 0 {
					through := extendPath(st.ip.frame(sum.Name, call.Pos()), ps.Path)
					st.sinkHit(call.Pos(), ps.Sink, origins, through)
				}
			}
		}
	}
}

// sinkHit records a tainted value reaching sink: a diagnostic for
// source-rooted origins (in report mode), a ParamSink summary fact
// for parameter-rooted ones. through holds the callee-side frames
// between this call and the actual sink, if the sink is nested.
func (st *taintState) sinkHit(pos token.Pos, sink string, origins []taintOrigin, through []string) {
	for _, o := range origins {
		if o.param == paramNone {
			if !st.report {
				continue
			}
			path := []string{"source: " + st.ip.frame(o.src, o.pos)}
			path = append(path, o.path...)
			path = append(path, through...)
			st.ip.addTaintDiag(Diagnostic{
				Pos:     pos,
				Message: fmt.Sprintf("key material from %s reaches %s", o.src, sink),
				Path:    path,
			})
		} else {
			if st.fs.addSink(o.param, sink, append(append([]string(nil), o.path...), through...)) {
				st.changed = true
			}
		}
	}
}

func (ip *IPContext) addTaintDiag(d Diagnostic) {
	key := fmt.Sprintf("%d|%s", d.Pos, d.Message)
	if ip.taintSeen == nil {
		ip.taintSeen = make(map[string]bool)
	}
	if ip.taintSeen[key] {
		return
	}
	ip.taintSeen[key] = true
	ip.taintDiags = append(ip.taintDiags, d)
}
