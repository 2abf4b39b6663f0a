package lint

// Interprocedural substrate: the shared value-flow/call-graph layer
// underneath the keytaint and lockorder analyzers.
//
// PR 9's analyzers are per-function; the bugs that remain — key bytes
// reaching a log line three calls away, an AB/BA lock inversion
// between two packages that never import each other — are structurally
// invisible to them. This layer makes whole-program facts flow the
// same way export data does:
//
//   - Per function, a summary (FuncSummary) of its externally visible
//     behavior: which results carry key material, which parameters
//     flow to which results or into forbidden sinks, which lock
//     classes it acquires (transitively), which blocking operations it
//     can reach, and which held→acquired lock edges it exhibits.
//   - Per package, the summaries of all its functions plus everything
//     inherited from its dependencies, serialized as the package's
//     "vetx" facts file. go vet hands each dependency's facts file to
//     dependent packages (Config.PackageVetx), so facts cross package
//     boundaries exactly in build order, cached like export data.
//   - At a call site, the callee's summary substitutes for its body:
//     static calls resolve through go/types; dynamic (interface or
//     func-value) calls resolve CHA-style to every summarized method
//     with the same name and receiver-stripped signature across the
//     module.
//
// Summaries are computed bottom-up to a fixpoint within each package
// (facts only grow, and are deduplicated by key, so the iteration
// terminates). Each fact carries a human-readable call path — the
// frames between a function's boundary and the deep source, sink,
// lock, or blocking operation it summarizes — so a diagnostic three
// calls from its cause can print the whole chain.
//
// The wire format (see MarshalVetx) is versioned and documented in
// DESIGN.md §15; future analyzers add fields to FuncSummary and reuse
// the propagation machinery unchanged.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// vetxHeader is the facts-file version line. Files with any other
// header (including PR 9's "qkdlint facts v1 (none)" placeholder)
// parse as empty, so mixed caches degrade to per-package analysis
// instead of failing.
const vetxHeader = "qkdlint facts v2"

// ---------------------------------------------------------------------
// Summary model
// ---------------------------------------------------------------------

// TaintFlow records that the value of parameter Param flows to result
// Result. Param -1 is the method receiver; results are indexed from 0.
type TaintFlow struct {
	Param  int `json:"p"`
	Result int `json:"r"`
}

// ParamSink records that parameter Param reaches a forbidden sink
// somewhere beneath this function. Path lists the frames from this
// function's body down to the sink call.
type ParamSink struct {
	Param int      `json:"p"`
	Sink  string   `json:"sink"`
	Path  []string `json:"path,omitempty"`
}

// LockUse records a lock class this function acquires, directly or
// through any callee.
type LockUse struct {
	Lock string   `json:"lock"`
	Path []string `json:"path,omitempty"`
}

// BlockOp records a blocking operation (channel send/receive, select
// without default, WaitGroup.Wait, a blocking key withdrawal)
// reachable from this function.
type BlockOp struct {
	Op   string   `json:"op"`
	Path []string `json:"path,omitempty"`
}

// LockEdge records one held→acquired ordering observation: while From
// was held, To was acquired (possibly deep inside a callee; Path holds
// the frames). Justified edges carry a //lint:lockorder annotation at
// the acquisition site and are excluded from cycle detection.
type LockEdge struct {
	From      string   `json:"from"`
	To        string   `json:"to"`
	Pos       string   `json:"pos"`
	Path      []string `json:"path,omitempty"`
	Justified bool     `json:"just,omitempty"`
}

// FuncSummary is the interprocedural abstract of one function: what a
// caller needs to know without the body. Fact slices are deduplicated
// by their natural key and sorted before serialization so the facts
// file is deterministic (go vet caches it by content).
type FuncSummary struct {
	// Name is the canonical identity: "pkgpath.Func" or
	// "pkgpath.Type.Method" (pointer receivers stripped).
	Name string `json:"name"`
	// Method is the bare method name for methods ("" for plain
	// functions); with Sig it keys CHA resolution of dynamic calls.
	Method string `json:"method,omitempty"`
	// Sig is the receiver-stripped signature string.
	Sig string `json:"sig,omitempty"`

	SecretResults []int       `json:"secret,omitempty"`
	ParamToResult []TaintFlow `json:"flows,omitempty"`
	ParamSinks    []ParamSink `json:"sinks,omitempty"`

	Acquires []LockUse  `json:"acquires,omitempty"`
	Blocks   []BlockOp  `json:"blocks,omitempty"`
	Edges    []LockEdge `json:"edges,omitempty"`
}

// factCount is the monotone size measure driving the fixpoint.
func (s *FuncSummary) factCount() int {
	return len(s.SecretResults) + len(s.ParamToResult) + len(s.ParamSinks) +
		len(s.Acquires) + len(s.Blocks) + len(s.Edges)
}

func (s *FuncSummary) addSecretResult(i int) bool {
	for _, r := range s.SecretResults {
		if r == i {
			return false
		}
	}
	s.SecretResults = append(s.SecretResults, i)
	return true
}

func (s *FuncSummary) addFlow(p, r int) bool {
	for _, f := range s.ParamToResult {
		if f.Param == p && f.Result == r {
			return false
		}
	}
	s.ParamToResult = append(s.ParamToResult, TaintFlow{p, r})
	return true
}

func (s *FuncSummary) addSink(p int, sink string, path []string) bool {
	for _, f := range s.ParamSinks {
		if f.Param == p && f.Sink == sink {
			return false
		}
	}
	s.ParamSinks = append(s.ParamSinks, ParamSink{p, sink, path})
	return true
}

func (s *FuncSummary) addAcquire(lock string, path []string) bool {
	for _, a := range s.Acquires {
		if a.Lock == lock {
			return false
		}
	}
	s.Acquires = append(s.Acquires, LockUse{lock, path})
	return true
}

func (s *FuncSummary) addBlock(op string, path []string) bool {
	for _, b := range s.Blocks {
		if b.Op == op {
			return false
		}
	}
	s.Blocks = append(s.Blocks, BlockOp{op, path})
	return true
}

func (s *FuncSummary) addEdge(e LockEdge) bool {
	for _, x := range s.Edges {
		if x.From == e.From && x.To == e.To {
			return false
		}
	}
	s.Edges = append(s.Edges, e)
	return true
}

func (s *FuncSummary) sortFacts() {
	sort.Ints(s.SecretResults)
	sort.Slice(s.ParamToResult, func(i, j int) bool {
		a, b := s.ParamToResult[i], s.ParamToResult[j]
		return a.Param < b.Param || (a.Param == b.Param && a.Result < b.Result)
	})
	sort.Slice(s.ParamSinks, func(i, j int) bool {
		a, b := s.ParamSinks[i], s.ParamSinks[j]
		return a.Param < b.Param || (a.Param == b.Param && a.Sink < b.Sink)
	})
	sort.Slice(s.Acquires, func(i, j int) bool { return s.Acquires[i].Lock < s.Acquires[j].Lock })
	sort.Slice(s.Blocks, func(i, j int) bool { return s.Blocks[i].Op < s.Blocks[j].Op })
	sort.Slice(s.Edges, func(i, j int) bool {
		a, b := s.Edges[i], s.Edges[j]
		return a.From < b.From || (a.From == b.From && a.To < b.To)
	})
}

// Summaries is a merged set of function summaries plus two global
// fact sets: the lock-order cycles already reported somewhere in the
// dependency closure (so a cycle visible from many packages is
// diagnosed exactly once), and the method keys of interfaces DECLARED
// in summarized packages. Dynamic calls are CHA-resolved only through
// the latter: a stdlib interface like hash.Hash also has Reset(), and
// resolving it against every module method named Reset would invent
// call edges that do not exist.
type Summaries struct {
	Funcs          map[string]*FuncSummary
	ReportedCycles map[string]bool
	IfaceMethods   map[string]bool
}

// NewSummaries returns an empty set.
func NewSummaries() *Summaries {
	return &Summaries{
		Funcs:          make(map[string]*FuncSummary),
		ReportedCycles: make(map[string]bool),
		IfaceMethods:   make(map[string]bool),
	}
}

// Merge folds other into s (other's entries win on name collision —
// they are identical in practice, since a function is summarized by
// exactly one package).
func (s *Summaries) Merge(other *Summaries) {
	if other == nil {
		return
	}
	for name, fs := range other.Funcs {
		s.Funcs[name] = fs
	}
	for sig := range other.ReportedCycles {
		s.ReportedCycles[sig] = true
	}
	for key := range other.IfaceMethods {
		s.IfaceMethods[key] = true
	}
}

// vetxFile is the serialized form.
type vetxFile struct {
	Funcs  []*FuncSummary `json:"funcs"`
	Cycles []string       `json:"cycles,omitempty"`
	Ifaces []string       `json:"ifaces,omitempty"`
}

// MarshalVetx serializes the set deterministically: header line, then
// one JSON object with functions sorted by name and facts sorted by
// key. go vet keys its action cache on this content.
func (s *Summaries) MarshalVetx() []byte {
	var f vetxFile
	names := make([]string, 0, len(s.Funcs))
	for name := range s.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fs := s.Funcs[name]
		fs.sortFacts()
		f.Funcs = append(f.Funcs, fs)
	}
	for sig := range s.ReportedCycles {
		f.Cycles = append(f.Cycles, sig)
	}
	sort.Strings(f.Cycles)
	for key := range s.IfaceMethods {
		f.Ifaces = append(f.Ifaces, key)
	}
	sort.Strings(f.Ifaces)
	body, err := json.Marshal(f)
	if err != nil {
		// Summaries are plain data; Marshal cannot fail on them.
		panic("lint: marshaling summaries: " + err.Error())
	}
	return append(append([]byte(vetxHeader+"\n"), body...), '\n')
}

// ParseVetx deserializes a facts file. Unversioned or foreign content
// yields an empty set, never an error: facts are an acceleration, and
// a stale cache must degrade, not wedge the build.
func ParseVetx(data []byte) *Summaries {
	out := NewSummaries()
	nl := strings.IndexByte(string(data), '\n')
	if nl < 0 || strings.TrimSpace(string(data[:nl])) != vetxHeader {
		return out
	}
	var f vetxFile
	if err := json.Unmarshal(data[nl+1:], &f); err != nil {
		return out
	}
	for _, fs := range f.Funcs {
		if fs != nil && fs.Name != "" {
			out.Funcs[fs.Name] = fs
		}
	}
	for _, sig := range f.Cycles {
		out.ReportedCycles[sig] = true
	}
	for _, key := range f.Ifaces {
		out.IfaceMethods[key] = true
	}
	return out
}

// ---------------------------------------------------------------------
// Canonical naming
// ---------------------------------------------------------------------

// strippedPkgPath returns pkg's import path without any build-variant
// suffix ("qkd/internal/kms [qkd/internal/kms.test]" → the former), so
// a function has one canonical name across test and non-test units.
func strippedPkgPath(pkg *types.Package) string {
	path := pkg.Path()
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return path
}

// funcKey returns the canonical summary name for fn:
// "pkgpath.Func" or "pkgpath.Type.Method".
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	path := strippedPkgPath(fn.Pkg())
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if tn := recvTypeName(sig.Recv().Type()); tn != "" {
			return path + "." + tn + "." + fn.Name()
		}
	}
	return path + "." + fn.Name()
}

// recvTypeName names a receiver type with pointers stripped, or "".
func recvTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// sigString renders a receiver-stripped signature with full package
// paths, the CHA matching key for dynamic calls.
func sigString(sig *types.Signature) string {
	bare := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return types.TypeString(bare, func(p *types.Package) string { return strippedPkgPath(p) })
}

// shortName compresses a canonical name for diagnostics:
// "qkd/internal/kms.Service.Pressure" → "kms.Service.Pressure".
func shortName(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// ---------------------------------------------------------------------
// IPContext: the per-package interprocedural pass
// ---------------------------------------------------------------------

// funcInfo pairs one function body with its identity. Function
// literals are analyzed as anonymous functions (they contribute local
// facts and lock edges) but are not callable through summaries.
type funcInfo struct {
	key     string
	fn      *types.Func // nil for function literals
	decl    *ast.FuncDecl
	lit     *ast.FuncLit
	body    *ast.BlockStmt
	params  []types.Object // positional parameters; receiver handled as -1
	recv    types.Object
	results []types.Object // named results (for naked returns); nil entries when unnamed
}

// IPContext carries the substrate through one package: dependency
// summaries in, this package's summaries out, plus shared resolution
// machinery for both interprocedural analyzers.
type IPContext struct {
	Fset  *token.FileSet
	Pkg   *types.Package
	Info  *types.Info
	Files []*ast.File

	Deps  *Summaries
	Local map[string]*FuncSummary

	funcs []*funcInfo

	// byMethod indexes every known summary by "method|signature" for
	// CHA resolution of interface and func-value calls.
	byMethod map[string][]*FuncSummary

	// ifaceMethods holds "method|signature" keys of interfaces
	// declared in this package or its summarized dependencies; only
	// these dynamic calls are CHA-resolved.
	ifaceMethods map[string]bool

	// dirs are the package's //lint: directives.
	dirs *directives

	// reportedCycles accumulates cycle signatures diagnosed here or in
	// any dependency; serialized into this package's facts.
	reportedCycles map[string]bool

	// Diagnostics collected by the analyzers' report passes after the
	// summary fixpoint converges; drained by KeyTaint.Run/LockOrder.Run.
	taintDiags []Diagnostic
	taintSeen  map[string]bool
	lockDiags  []Diagnostic
	lockSeen   map[string]bool
}

// BuildIP constructs the substrate for one type-checked package: it
// enumerates functions, seeds empty summaries, and iterates the
// summary builders (taint and lock) to a fixpoint so facts flow
// through intra-package call chains in any declaration order.
func BuildIP(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, deps *Summaries) *IPContext {
	if deps == nil {
		deps = NewSummaries()
	}
	ip := &IPContext{
		Fset:           fset,
		Pkg:            pkg,
		Info:           info,
		Files:          files,
		Deps:           deps,
		Local:          make(map[string]*FuncSummary),
		dirs:           readDirectives(fset, files),
		reportedCycles: make(map[string]bool),
	}
	for sig := range deps.ReportedCycles {
		ip.reportedCycles[sig] = true
	}
	ip.collectFuncs()
	ip.collectIfaceMethods()
	ip.rebuildCHAIndex()

	// Fixpoint: facts are added with dedup keys only, so the total
	// count is monotone and the loop terminates. The bound is a
	// belt-and-braces guard against a dedup bug, not a budget.
	for iter := 0; iter < 32; iter++ {
		before := 0
		for _, fs := range ip.Local {
			before += fs.factCount()
		}
		for _, fi := range ip.funcs {
			summarizeTaint(ip, fi)
			summarizeLocks(ip, fi)
		}
		after := 0
		for _, fs := range ip.Local {
			after += fs.factCount()
		}
		if after == before {
			break
		}
		ip.rebuildCHAIndex()
	}

	// With summaries converged, one reporting pass emits the
	// diagnostics (running it during the fixpoint would duplicate
	// them on every iteration).
	for _, fi := range ip.funcs {
		reportTaint(ip, fi)
		reportLocks(ip, fi)
	}
	return ip
}

// Out returns the package's outgoing facts: dependency summaries plus
// this package's own, cumulatively, so reading any package's facts
// file yields its whole dependency closure.
func (ip *IPContext) Out() *Summaries {
	out := NewSummaries()
	out.Merge(ip.Deps)
	for name, fs := range ip.Local {
		out.Funcs[name] = fs
	}
	for sig := range ip.reportedCycles {
		out.ReportedCycles[sig] = true
	}
	return out
}

func (ip *IPContext) collectFuncs() {
	for _, f := range ip.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := ip.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fi := &funcInfo{key: funcKey(obj), fn: obj, decl: fd, body: fd.Body}
			sig := obj.Type().(*types.Signature)
			if r := sig.Recv(); r != nil {
				fi.recv = firstFieldObj(ip.Info, fd.Recv)
			}
			fi.params = paramObjs(ip.Info, fd.Type.Params)
			fi.results = paramObjs(ip.Info, fd.Type.Results)
			ip.funcs = append(ip.funcs, fi)
			fs := &FuncSummary{Name: fi.key}
			if sig.Recv() != nil {
				fs.Method = obj.Name()
				fs.Sig = sigString(sig)
			}
			ip.Local[fi.key] = fs

			// Function literals inside the body are analyzed as
			// stand-alone anonymous functions: their lock edges and
			// complete intra-literal taint flows are real even though no
			// summary-based caller resolves to them.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					posn := ip.Fset.Position(lit.Pos())
					key := fmt.Sprintf("%s.%s.func@%s:%d", strippedPkgPath(ip.Pkg), fd.Name.Name, filepath.Base(posn.Filename), posn.Line)
					lfi := &funcInfo{key: key, lit: lit, body: lit.Body, params: paramObjs(ip.Info, lit.Type.Params)}
					ip.funcs = append(ip.funcs, lfi)
					ip.Local[key] = &FuncSummary{Name: key}
				}
				return true
			})
		}
	}
}

func paramObjs(info *types.Info, fl *ast.FieldList) []types.Object {
	var out []types.Object
	if fl == nil {
		return out
	}
	for _, field := range fl.List {
		if len(field.Names) == 0 {
			out = append(out, nil) // unnamed parameter still occupies a slot
			continue
		}
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

func firstFieldObj(info *types.Info, fl *ast.FieldList) types.Object {
	if fl == nil || len(fl.List) == 0 || len(fl.List[0].Names) == 0 {
		return nil
	}
	return info.Defs[fl.List[0].Names[0]]
}

// collectIfaceMethods records the method keys of every interface type
// declared at package scope, merged with the dependency closure's.
func (ip *IPContext) collectIfaceMethods() {
	ip.ifaceMethods = make(map[string]bool)
	for key := range ip.Deps.IfaceMethods {
		ip.ifaceMethods[key] = true
	}
	scope := ip.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			if sig, ok := m.Type().(*types.Signature); ok {
				ip.ifaceMethods[m.Name()+"|"+sigString(sig)] = true
			}
		}
	}
}

func (ip *IPContext) rebuildCHAIndex() {
	ip.byMethod = make(map[string][]*FuncSummary)
	add := func(fs *FuncSummary) {
		if fs.Method == "" {
			return
		}
		key := fs.Method + "|" + fs.Sig
		ip.byMethod[key] = append(ip.byMethod[key], fs)
	}
	for _, fs := range ip.Deps.Funcs {
		add(fs)
	}
	for _, fs := range ip.Local {
		add(fs)
	}
}

// Lookup resolves a canonical name to its summary, local first.
func (ip *IPContext) Lookup(name string) *FuncSummary {
	if fs, ok := ip.Local[name]; ok {
		return fs
	}
	return ip.Deps.Funcs[name]
}

// resolveCall maps one call expression to the summaries that may
// execute. Static calls (package functions, concrete methods) resolve
// exactly; interface-method calls resolve CHA-style to every
// summarized method with the same name and receiver-stripped
// signature. Unresolvable calls (func values, stdlib without
// summaries) return nil and are handled by intrinsic models or
// treated as inert.
func (ip *IPContext) resolveCall(call *ast.CallExpr) []*FuncSummary {
	fn := calleeFunc(ip.Info, call)
	if fn == nil {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			// Dynamic dispatch: class-hierarchy analysis by method name
			// plus exact signature — but only through interfaces the
			// summarized world declares. hash.Hash also has a Reset();
			// resolving it to every module Reset would invent edges.
			key := fn.Name() + "|" + sigString(sig)
			if !ip.ifaceMethods[key] {
				return nil
			}
			return ip.byMethod[key]
		}
	}
	if fs := ip.Lookup(funcKey(fn)); fs != nil {
		return []*FuncSummary{fs}
	}
	return nil
}

// frame renders one call-path frame: "func (file:line)".
func (ip *IPContext) frame(name string, pos token.Pos) string {
	posn := ip.Fset.Position(pos)
	return fmt.Sprintf("%s (%s:%d)", shortName(name), filepath.Base(posn.Filename), posn.Line)
}

// extendPath prepends a frame to a fact's path, bounding depth so
// pathological recursion cannot balloon the facts file.
func extendPath(head string, rest []string) []string {
	const maxDepth = 12
	out := append([]string{head}, rest...)
	if len(out) > maxDepth {
		out = out[:maxDepth]
	}
	return out
}

// lockorderJustifiedAt reports whether pos is covered by a
// //lint:lockorder directive: the acquisition there is deliberately
// outside the global order (excluded from nesting and cycle
// diagnostics), and its holder is excused from held-across-blocking
// reports.
func (ip *IPContext) lockorderJustifiedAt(pos token.Pos) bool {
	return ip.dirs.justified(ip.Fset.Position(pos))
}
