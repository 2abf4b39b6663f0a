package lint

import (
	"go/ast"
	"go/types"
)

// DetRand enforces determinism in the packages whose behavior must be
// bit-reproducible from a seed: experiment harnesses replay fault
// schedules, chaos plans slot-partition events, workload generators
// emit byte-identical traces, distillation carves mirrored ledgers,
// and kms drives admission control from an injected clock. A
// stray call to the global math/rand state or a raw wall-clock read
// destroys replayability (and, for the mirrored ledgers, bit-exact
// agreement between endpoints). Deterministic packages must draw
// randomness from an injected seeded *rand.Rand and time from an
// injected clock (a `now func() time.Time` wired to time.Now by
// default — referencing time.Now as a value stays legal; calling it
// does not).
//
// Scope: the built-in package list below, plus any package carrying a
// `//lint:deterministic` directive comment. _test.go files are exempt
// (tests measure real deadlines and wall-clock latency).
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: "forbid global math/rand and raw time.Now/Since/Until calls in " +
		"deterministic packages (experiments, chaos, workload, core, kms, ipsec " +
		"and //lint:deterministic packages); inject a seeded rng and a clock",
	Run: runDetRand,
}

// detRandScope lists the import paths whose replayability the
// experiments and the mirrored-ledger security argument depend on.
var detRandScope = map[string]bool{
	"qkd/internal/experiments": true,
	"qkd/internal/chaos":       true,
	"qkd/internal/workload":    true,
	"qkd/internal/core":        true,
	"qkd/internal/kms":         true,
	"qkd/internal/ipsec":       true,
}

// randConstructors build an injected generator from an explicit seed or
// source; they are the approved pattern, not a use of global state.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runDetRand(pass *Pass) error {
	path := strippedPkgPath(pass.Pkg)
	if !detRandScope[path] && !pass.IP.dirs.deterministic {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(call.Pos(), "call to time.%s in deterministic package %s; read time through an injected clock (a now func() time.Time field defaulting to time.Now)",
						fn.Name(), path)
				}
			case "math/rand", "math/rand/v2":
				if fn.Type().(*types.Signature).Recv() != nil {
					return true // methods on an injected *rand.Rand are the approved pattern
				}
				if randConstructors[fn.Name()] {
					return true
				}
				pass.Reportf(call.Pos(), "call to global %s.%s in deterministic package %s; draw from an injected seeded *rand.Rand instead",
					fn.Pkg().Name(), fn.Name(), path)
			}
			return true
		})
	}
	return nil
}
