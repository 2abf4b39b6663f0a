// Package linttest runs a lint.Analyzer over a corpus package under
// testdata/src and checks its findings against `// want` comments, in
// the style of x/tools' analysistest:
//
//	rv, err := pool.Reserve(10) // want "never.*released"
//
// A want comment holds one quoted regexp per expected diagnostic on
// that line. Every diagnostic must be matched by a want on its line
// and every want must be matched by a diagnostic; anything unmatched
// fails the test.
//
// Corpus packages are type-checked from source: imports resolve first
// against testdata/src (so corpora can use small fakes of repo
// packages like keypool) and then against the standard library via the
// source importer, which needs no pre-compiled export data.
//
// Corpus-local imports are summarized (lint.Summarize) before the
// package under test runs, mirroring how the vettool and standalone
// drivers thread interprocedural facts between packages — so a corpus
// can pin a taint flow or a lock-order cycle that crosses a package
// boundary.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"qkd/internal/lint"
)

// Run loads testdata/src/<pkgPath> (relative to the test's working
// directory), applies the analyzer, and diffs findings against want
// comments.
func Run(t *testing.T, analyzer *lint.Analyzer, pkgPath string) {
	t.Helper()
	l := newLoader(filepath.Join("testdata", "src"))
	tp, err := l.load(pkgPath)
	if err != nil {
		t.Fatalf("loading corpus %s: %v", pkgPath, err)
	}
	findings, _, err := lint.CheckWithDeps(l.fset, tp.files, tp.pkg, tp.info, []*lint.Analyzer{analyzer}, l.depFacts(tp))
	if err != nil {
		t.Fatalf("running %s on %s: %v", analyzer.Name, pkgPath, err)
	}
	diffWants(t, l.fset, tp.files, findings)
}

// Facts returns the cumulative interprocedural facts of the corpus
// package testdata/src/<pkgPath> (its own summaries and its
// corpus-local dependencies'), as a driver hands them to dependents.
func Facts(t testing.TB, pkgPath string) *lint.Summaries {
	t.Helper()
	l := newLoader(filepath.Join("testdata", "src"))
	if _, err := l.load(pkgPath); err != nil {
		t.Fatalf("loading corpus %s: %v", pkgPath, err)
	}
	return l.factsFor(pkgPath, make(map[string]*lint.Summaries))
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want((?:\s+(?:"(?:[^"\\]|\\.)*"|` + "`[^`]*`" + `))+)\s*$`)
var quoteRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"|` + "`([^`]*)`")

func diffWants(t *testing.T, fset *token.FileSet, files []*ast.File, findings []lint.Finding) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quoteRE.FindAllStringSubmatch(m[1], -1) {
					pat := q[2] // backquoted form: literal
					if q[2] == "" && strings.HasPrefix(q[0], `"`) {
						var err error
						pat, err = strconv.Unquote(q[0])
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, q[0], err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			// Compare basenames: interprocedural diagnostics anchored via
			// a facts-file position (lock-order cycles) carry only the
			// file's base name, and corpus file names are unique.
			if !w.matched && filepath.Base(w.file) == filepath.Base(f.Pos.Filename) && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.raw)
		}
	}
}

// loader type-checks corpus packages, resolving imports against
// testdata/src first and the standard library (from source) second.
type loader struct {
	fset     *token.FileSet
	srcDir   string
	fallback types.Importer
	pkgs     map[string]*typedPackage
}

type typedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	err   error
}

func newLoader(srcDir string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:     fset,
		srcDir:   srcDir,
		fallback: importer.ForCompiler(fset, "source", nil),
		pkgs:     make(map[string]*typedPackage),
	}
}

func (l *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.srcDir, filepath.FromSlash(path)); dirExists(dir) {
		tp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return tp.pkg, nil
	}
	return l.fallback.Import(path)
}

func (l *loader) load(path string) (*typedPackage, error) {
	if tp, ok := l.pkgs[path]; ok {
		return tp, tp.err
	}
	tp := &typedPackage{}
	l.pkgs[path] = tp // pre-register: import cycles fail in Check, not recurse

	dir := filepath.Join(l.srcDir, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		tp.err = err
		return tp, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		tp.err = fmt.Errorf("no Go files in %s", dir)
		return tp, tp.err
	}
	tp.files, tp.pkg, tp.info, tp.err = lint.TypeCheck(l.fset, path, dir, names, l, "")
	return tp, tp.err
}

// depFacts merges the cumulative interprocedural facts of tp's
// corpus-local imports, the way a real driver hands each package the
// facts files of its direct imports.
func (l *loader) depFacts(tp *typedPackage) *lint.Summaries {
	memo := make(map[string]*lint.Summaries)
	deps := lint.NewSummaries()
	for _, imp := range l.corpusImports(tp) {
		deps.Merge(l.factsFor(imp, memo))
	}
	return deps
}

// factsFor computes one corpus package's cumulative facts (its own
// plus its corpus-local dependency closure's), memoized.
func (l *loader) factsFor(path string, memo map[string]*lint.Summaries) *lint.Summaries {
	if s, ok := memo[path]; ok {
		return s
	}
	memo[path] = lint.NewSummaries() // cycle guard
	tp, err := l.load(path)
	if err != nil {
		return memo[path]
	}
	deps := lint.NewSummaries()
	for _, imp := range l.corpusImports(tp) {
		deps.Merge(l.factsFor(imp, memo))
	}
	s := lint.Summarize(l.fset, tp.files, tp.pkg, tp.info, deps)
	memo[path] = s
	return s
}

// corpusImports lists tp's imports that live under testdata/src.
func (l *loader) corpusImports(tp *typedPackage) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range tp.files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || seen[path] {
				continue
			}
			seen[path] = true
			if dirExists(filepath.Join(l.srcDir, filepath.FromSlash(path))) {
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}
