// Package lint implements qkdlint: a suite of static analyzers that
// machine-check the stack's key-hygiene and concurrency invariants —
// the properties the paper's security argument rests on but the
// compiler cannot see. One-time pads must be consumed exactly once,
// reserved key bits must always reach Consume, Release, or Close,
// sentinel errors must be matched with errors.Is so wrapped KDS errors
// still drive degraded modes, fields accessed via sync/atomic must
// never be touched plainly, and deterministic packages must not read
// ambient randomness or wall clocks.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is self-contained on the standard
// library: the module is dependency-free by design, so the analyzers,
// the analysistest-style harness (linttest), and the `go vet -vettool`
// protocol (internal/lint/unit) are all implemented here.
//
// Deliberate false positives are suppressed in source with a
// justification comment on the offending line or the line above:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// A suppression without a reason does not suppress.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags, and
	// //lint:ignore suppressions.
	Name string
	// Doc is the one-paragraph description printed by -help and cited
	// in DESIGN.md §14.
	Doc string
	// Run executes the check over a single type-checked package.
	Run func(*Pass) error
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// IP is the interprocedural substrate for this package: dependency
	// summaries merged in, local summaries computed, and the package's
	// //lint: directives.
	IP *IPContext

	report func(Diagnostic)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Posn, when set, overrides the Pos→Position resolution. Used for
	// facts whose anchor lives in a dependency package (a lock-order
	// cycle edge acquired two packages away) where no token.Pos in the
	// current FileSet exists.
	Posn *token.Position
	// Path is the source→sink or held→acquired call chain, one
	// "func (file:line)" frame per element, printed under the finding.
	Path []string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Report records a fully-formed diagnostic (with an optional flow
// path and position override).
func (p *Pass) Report(d Diagnostic) {
	p.report(d)
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// A Finding is a Diagnostic resolved to a concrete position, tagged
// with the analyzer that produced it.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Path is the interprocedural call chain behind the finding, if
	// any, outermost frame first.
	Path []string
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
	for _, frame := range f.Path {
		s += "\n\t" + frame
	}
	return s
}

// TypeCheck is the one loader behind every driver: it parses the named
// files (relative names resolve in dir) and type-checks them as the
// package at path, resolving imports through imp. goVersion may be ""
// for the toolchain default. The first parse or type error is
// returned; type checking keeps going past it, so a single bad file
// does not hide findings in the rest of the package.
func TypeCheck(fset *token.FileSet, path, dir string, names []string, imp types.Importer, goVersion string) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range names {
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := types.Config{
		Importer:  imp,
		GoVersion: goVersion,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		Error:     func(error) {},
	}
	pkg, err := cfg.Check(path, fset, files, info)
	return files, pkg, info, err
}

// ExportImporter returns an importer that reads the gc export data the
// build left for each import path, in the file exportFile names.
func ExportImporter(fset *token.FileSet, exportFile func(importPath string) (string, bool)) types.Importer {
	return importer.ForCompiler(fset, "gc", func(importPath string) (io.ReadCloser, error) {
		file, ok := exportFile(importPath)
		if !ok {
			return nil, fmt.Errorf("no export data for %q", importPath)
		}
		return os.Open(file)
	})
}

// Summarize computes a package's outgoing interprocedural facts (its
// dependency closure's plus its own) without running any analyzer.
// Used for VetxOnly dependency passes and by harnesses that need a
// corpus package's facts before checking its dependents.
func Summarize(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, deps *Summaries) *Summaries {
	return BuildIP(fset, files, pkg, info, deps).Out()
}

// CheckWithDeps runs the analyzers over one type-checked package with
// the dependency closure's function summaries available. It returns
// the surviving findings (suppressions applied), sorted by position,
// and this package's outgoing summaries (the closure plus its own) for
// the caller to hand to dependent packages.
func CheckWithDeps(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, deps *Summaries) ([]Finding, *Summaries, error) {
	ip := BuildIP(fset, files, pkg, info, deps)
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			IP:        ip,
		}
		pass.report = func(d Diagnostic) {
			posn := fset.Position(d.Pos)
			if d.Posn != nil {
				posn = *d.Posn
			}
			if ip.dirs.suppressed(a.Name, posn) {
				return
			}
			findings = append(findings, Finding{Analyzer: a.Name, Pos: posn, Message: d.Message, Path: d.Path})
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, ip.Out(), nil
}

// ---------------------------------------------------------------------
// Directives
// ---------------------------------------------------------------------

// directives are a package's //lint: comments, read once:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//	//lint:lockorder <reason>
//	//lint:deterministic
//
// An ignore or lockorder directive covers findings on its own line and
// on the line below, so it works both as a trailing comment and on a
// line of its own; without a reason it does nothing.
type directives struct {
	ignore        map[dirLine][]string // analyzers suppressed there
	lockorder     map[dirLine]bool     // lock holds justified there
	deterministic bool                 // the package opts into detrand
}

type dirLine struct {
	file string
	line int
}

func readDirectives(fset *token.FileSet, files []*ast.File) *directives {
	d := &directives{ignore: make(map[dirLine][]string), lockorder: make(map[dirLine]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				words := strings.Fields(text)
				if !ok || len(words) == 0 {
					continue
				}
				posn := fset.Position(c.Pos())
				at := dirLine{posn.Filename, posn.Line}
				switch {
				case words[0] == "ignore" && len(words) > 2:
					d.ignore[at] = append(d.ignore[at], strings.Split(words[1], ",")...)
				case words[0] == "lockorder" && len(words) > 1:
					d.lockorder[at] = true
				case words[0] == "deterministic":
					d.deterministic = true
				}
			}
		}
	}
	return d
}

// suppressed reports whether an ignore directive covers analyzer's
// finding at posn.
func (d *directives) suppressed(analyzer string, posn token.Position) bool {
	for _, line := range [2]int{posn.Line, posn.Line - 1} {
		for _, name := range d.ignore[dirLine{posn.Filename, line}] {
			if name == analyzer || name == "*" {
				return true
			}
		}
	}
	return false
}

// justified reports whether a lockorder directive covers posn.
func (d *directives) justified(posn token.Position) bool {
	return d.lockorder[dirLine{posn.Filename, posn.Line}] || d.lockorder[dirLine{posn.Filename, posn.Line - 1}]
}

// ---------------------------------------------------------------------
// AST helpers shared by the analyzers
// ---------------------------------------------------------------------

// WalkStack traverses root, calling fn with each node and the stack of
// its ancestors (outermost first, not including n itself). If fn
// returns false the node's children are skipped.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			// Children skipped: no pop event will come for n, so do not
			// push it.
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves the called function/method of call, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
