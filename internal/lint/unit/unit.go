// Package unit implements the `go vet -vettool` wire protocol so the
// qkdlint analyzers can run inside the standard vet pipeline with full
// build-cache integration.
//
// cmd/go drives a vettool in three phases:
//
//  1. `tool -V=full` — a version handshake. The output's second field
//     must be "version"; for non-release builds the last field must be
//     "buildID=<id>". The id keys go's action cache, so it must change
//     when the tool changes: we hash the tool's own executable.
//  2. `tool -flags` — the tool prints a JSON array describing the
//     flags it accepts; cmd/go validates user flags against it.
//  3. `tool [flags] <objdir>/vet.cfg` — one invocation per package.
//     The cfg is a JSON object (see Config) listing the source files
//     and, for every import, the compiled export-data archive produced
//     by the build. Dependency-only invocations set VetxOnly: for
//     module packages we type-check and summarize (interprocedural
//     facts, see lint.Summaries), writing the package's cumulative
//     facts file to VetxOutput; stdlib dependencies get an empty facts
//     file (their calls neither propagate nor sink key material, by
//     design). Real invocations read the facts files of their direct
//     imports (PackageVetx) — cumulative, so they carry the whole
//     dependency closure — and run the analyzers with them.
//
// Diagnostics go to stderr as file:line:col lines and the process
// exits 2, which `go vet` reports as a failure for that package.
package unit

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"qkd/internal/lint"
)

// Config mirrors the vetConfig JSON written by cmd/go into
// <objdir>/vet.cfg (cmd/go/internal/work.vetConfig). Unknown fields
// are ignored, so additions on the go side stay compatible.
type Config struct {
	ID            string
	Compiler      string
	Dir           string
	ImportPath    string
	GoFiles       []string
	NonGoFiles    []string
	IgnoredFiles  []string
	ModulePath    string
	ModuleVersion string
	ImportMap     map[string]string
	PackageFile   map[string]string
	Standard      map[string]bool
	PackageVetx   map[string]string
	VetxOnly      bool
	VetxOutput    string
	GoVersion     string

	SucceedOnTypecheckFailure bool
}

// Main is the entry point for vettool mode. It never returns: it
// handles the handshake queries or processes one vet.cfg and exits.
func Main(analyzers []*lint.Analyzer) {
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		printVersion()
		os.Exit(0)
	}
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		printFlagDefs(analyzers)
		os.Exit(0)
	}

	fs := flag.NewFlagSet("qkdlint", flag.ExitOnError)
	selected := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		selected[a.Name] = fs.Bool(a.Name, false, a.Doc)
	}
	fs.Parse(os.Args[1:])
	args := fs.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintln(os.Stderr, "qkdlint (vettool mode): expected a single *.cfg argument from go vet")
		os.Exit(1)
	}
	os.Exit(processCfg(args[0], Enabled(analyzers, selected)))
}

// Enabled applies the multichecker flag convention: if no analyzer
// flag was set, every analyzer runs; otherwise only the named ones do.
func Enabled(analyzers []*lint.Analyzer, selected map[string]*bool) []*lint.Analyzer {
	any := false
	for _, on := range selected {
		if on != nil && *on {
			any = true
			break
		}
	}
	if !any {
		return analyzers
	}
	var out []*lint.Analyzer
	for _, a := range analyzers {
		if on := selected[a.Name]; on != nil && *on {
			out = append(out, a)
		}
	}
	return out
}

// printVersion emits the -V=full handshake line. cmd/go (buildid's
// toolID) requires field 2 to be "version" and, when field 3 is
// "devel", the final field to start with "buildID=". Hashing our own
// binary makes the id — and therefore go's vet cache — change exactly
// when the tool does.
func printVersion() {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil)[:12])
			}
			f.Close()
		}
	}
	fmt.Printf("qkdlint version devel buildID=%s\n", id)
}

type flagDef struct {
	Name  string
	Bool  bool
	Usage string
}

func printFlagDefs(analyzers []*lint.Analyzer) {
	defs := make([]flagDef, 0, len(analyzers))
	for _, a := range analyzers {
		defs = append(defs, flagDef{Name: a.Name, Bool: true, Usage: a.Doc})
	}
	out, err := json.Marshal(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.Write(out)
	fmt.Println()
}

// ParseConfig decodes one vet.cfg. Exported for processCfg and for
// the fuzz target in cmd/qkdlint, which throws malformed JSON, missing
// fields, and oversized inputs at it.
func ParseConfig(data []byte) (*Config, error) {
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, err
	}
	return &cfg, nil
}

func processCfg(path string, analyzers []*lint.Analyzer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qkdlint: reading %s: %v\n", path, err)
		return 1
	}
	cfg, err := ParseConfig(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qkdlint: parsing %s: %v\n", path, err)
		return 1
	}
	if cfg.VetxOnly {
		// Dependency pass: summarize module packages so their
		// interprocedural facts flow to dependents. Stdlib packages
		// are inert by design (ModulePath is empty for them): an
		// empty facts file keeps the pipeline moving.
		if cfg.ModulePath == "" {
			if err := writeVetx(cfg, lint.NewSummaries()); err != nil {
				fmt.Fprintln(os.Stderr, "qkdlint:", err)
				return 1
			}
			return 0
		}
		fset, files, pkg, info, err := loadPackage(cfg)
		out := lint.NewSummaries()
		if err == nil {
			out = lint.Summarize(fset, files, pkg, info, readDepFacts(cfg))
		}
		// A dependency that fails to type-check here will fail its own
		// real vet run with a proper diagnostic; degrade to no facts.
		if err := writeVetx(cfg, out); err != nil {
			fmt.Fprintln(os.Stderr, "qkdlint:", err)
			return 1
		}
		return 0
	}

	fset, files, pkg, info, err := loadPackage(cfg)
	if err != nil {
		return typecheckFailed(cfg, err)
	}

	findings, out, err := lint.CheckWithDeps(fset, files, pkg, info, analyzers, readDepFacts(cfg))
	if err != nil {
		fmt.Fprintln(os.Stderr, "qkdlint:", err)
		return 1
	}
	if err := writeVetx(cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "qkdlint:", err)
		return 1
	}
	if len(findings) == 0 {
		return 0
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f.String())
	}
	return 2
}

// loadPackage parses and type-checks the unit's files against the
// build's export data.
func loadPackage(cfg *Config) (*token.FileSet, []*ast.File, *types.Package, *types.Info, error) {
	fset := token.NewFileSet()
	imp := lint.ExportImporter(fset, func(importPath string) (string, bool) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		file, ok := cfg.PackageFile[importPath]
		return file, ok
	})
	files, pkg, info, err := lint.TypeCheck(fset, cfg.ImportPath, cfg.Dir, cfg.GoFiles, imp, cfg.GoVersion)
	return fset, files, pkg, info, err
}

// readDepFacts merges the facts files of every direct import. Each is
// cumulative (a package's facts embed its dependencies'), so direct
// imports suffice for the transitive closure. Unreadable or
// foreign-format files contribute nothing.
func readDepFacts(cfg *Config) *lint.Summaries {
	deps := lint.NewSummaries()
	for _, file := range cfg.PackageVetx {
		data, err := os.ReadFile(file)
		if err != nil {
			continue
		}
		deps.Merge(lint.ParseVetx(data))
	}
	return deps
}

// typecheckFailed honors SucceedOnTypecheckFailure, which cmd/go sets
// when the compiler itself is expected to report the errors (so vet
// should not duplicate them).
func typecheckFailed(cfg *Config, err error) int {
	if cfg.SucceedOnTypecheckFailure {
		if werr := writeVetx(cfg, lint.NewSummaries()); werr != nil {
			fmt.Fprintln(os.Stderr, "qkdlint:", werr)
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "qkdlint: typechecking %s: %v\n", cfg.ImportPath, err)
	return 1
}

func writeVetx(cfg *Config, out *lint.Summaries) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	return os.WriteFile(cfg.VetxOutput, out.MarshalVetx(), 0o666)
}
