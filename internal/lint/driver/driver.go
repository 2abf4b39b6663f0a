// Package driver runs the qkdlint analyzers standalone, without
// go vet. It shells out to `go list -export -deps -json` — which
// compiles every dependency and reports the export-data archive for
// each — then parses and type-checks the module's packages against
// those archives in dependency order, threading interprocedural
// summaries (lint.Summaries) from each package to its dependents, and
// applies the analyzer suite to the packages matching the patterns.
//
// Packages whose dependencies are all summarized are checked by a
// bounded pool of workers; the summary store is the only shared
// state. Findings are buffered and emitted in import-path order, so
// output is deterministic regardless of scheduling.
//
// This is the mode behind `qkdlint ./...`. It covers non-test sources
// only (go list -export describes the compiled package proper); the
// CI vettool mode covers test files too.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os/exec"
	"runtime"
	"sort"
	"sync"

	"qkd/internal/lint"
)

// Options configures a standalone run.
type Options struct {
	// JSON switches output from human-readable text to a single JSON
	// array of diagnostics (file/line/col/analyzer/message/path).
	JSON bool
	// Jobs bounds the worker pool; <= 0 means GOMAXPROCS.
	Jobs int
}

// listPackage is the subset of `go list -json` output the driver uses.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Path     []string `json:"path,omitempty"`
}

// Run lints the packages matching patterns, writing findings to w.
// It returns the number of findings.
func Run(patterns []string, analyzers []*lint.Analyzer, w io.Writer, opts Options) (int, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(patterns)
	if err != nil {
		return 0, err
	}

	exports := make(map[string]string, len(pkgs))
	goVersion := ""
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Module != nil && p.Module.GoVersion != "" && !p.DepOnly {
			goVersion = "go" + p.Module.GoVersion
		}
	}

	// Every non-stdlib package is summarized (facts must reach
	// dependents); only the pattern targets are analyzed.
	byPath := make(map[string]*listPackage)
	var order []string
	for i := range pkgs {
		p := &pkgs[i]
		if p.Standard {
			continue
		}
		if p.Error != nil && !p.DepOnly {
			return 0, fmt.Errorf("loading %s: %s", p.ImportPath, p.Error.Err)
		}
		byPath[p.ImportPath] = p
		order = append(order, p.ImportPath)
	}

	// Dependency-count scheduling: a package becomes ready when its
	// last in-module import is summarized.
	remaining := make(map[string]int, len(order))
	dependents := make(map[string][]string)
	for _, path := range order {
		n := 0
		for _, imp := range byPath[path].Imports {
			if _, ok := byPath[imp]; ok {
				n++
				dependents[imp] = append(dependents[imp], path)
			}
		}
		remaining[path] = n
	}

	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(order) {
		jobs = len(order)
	}
	if jobs < 1 {
		jobs = 1
	}

	var (
		mu        sync.Mutex
		sums      = make(map[string]*lint.Summaries, len(order))
		results   = make(map[string][]lint.Finding)
		firstErr  error
		processed int
	)
	ready := make(chan string, len(order))
	enqueueReady := func() { // call with mu held
		if processed == len(order) {
			close(ready)
		}
	}
	for _, path := range order {
		if remaining[path] == 0 {
			ready <- path
		}
	}
	if len(order) == 0 {
		close(ready)
	}

	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range ready {
				p := byPath[path]

				mu.Lock()
				deps := lint.NewSummaries()
				for _, imp := range p.Imports {
					deps.Merge(sums[imp]) // cumulative: direct imports carry the closure
				}
				skip := firstErr != nil
				mu.Unlock()

				out := lint.NewSummaries()
				var findings []lint.Finding
				var perr error
				if !skip && len(p.GoFiles) > 0 && p.Error == nil {
					findings, out, perr = checkPackage(p, exports, goVersion, analyzers, deps, !p.DepOnly)
				}

				mu.Lock()
				sums[path] = out
				if perr != nil && firstErr == nil {
					firstErr = fmt.Errorf("checking %s: %w", path, perr)
				}
				if len(findings) > 0 {
					results[path] = findings
				}
				processed++
				for _, dep := range dependents[path] {
					remaining[dep]--
					if remaining[dep] == 0 {
						ready <- dep
					}
				}
				enqueueReady()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return 0, firstErr
	}

	paths := make([]string, 0, len(results))
	for path := range results {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	total := 0
	if opts.JSON {
		var out []jsonDiagnostic
		for _, path := range paths {
			for _, f := range results[path] {
				out = append(out, jsonDiagnostic{
					File:     f.Pos.Filename,
					Line:     f.Pos.Line,
					Col:      f.Pos.Column,
					Analyzer: f.Analyzer,
					Message:  f.Message,
					Path:     f.Path,
				})
				total++
			}
		}
		if out == nil {
			out = []jsonDiagnostic{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			return total, err
		}
		return total, nil
	}
	for _, path := range paths {
		for _, f := range results[path] {
			fmt.Fprintln(w, f.String())
			total++
		}
	}
	return total, nil
}

func goList(patterns []string) ([]listPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("parsing go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// checkPackage type-checks one package and either fully analyzes it
// (analyze=true) or only computes its outgoing summaries.
func checkPackage(p *listPackage, exports map[string]string, goVersion string, analyzers []*lint.Analyzer, deps *lint.Summaries, analyze bool) ([]lint.Finding, *lint.Summaries, error) {
	fset := token.NewFileSet()
	imp := lint.ExportImporter(fset, func(importPath string) (string, bool) {
		file, ok := exports[importPath]
		return file, ok
	})
	files, pkg, info, err := lint.TypeCheck(fset, p.ImportPath, p.Dir, p.GoFiles, imp, goVersion)
	if err != nil {
		return nil, nil, err
	}
	if !analyze {
		return nil, lint.Summarize(fset, files, pkg, info, deps), nil
	}
	return lint.CheckWithDeps(fset, files, pkg, info, analyzers, deps)
}
