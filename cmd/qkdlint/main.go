// Command qkdlint is the repo's custom static-analysis suite: seven
// analyzers encoding the stack's standing invariants (reservation
// lifecycle, pad hygiene, wrapped-sentinel matching, atomic access
// discipline, deterministic-replay purity, key-material taint flow,
// lock-acquisition order).
//
// Two modes share one binary:
//
//	go vet -vettool=$(pwd)/qkdlint ./...   # full vet pipeline, test files included
//	qkdlint ./...                          # standalone, non-test sources
//
// Both modes parse and type-check each package through one loader
// (lint.TypeCheck) against the export data the go command builds.
// Vettool mode is auto-detected from cmd/go's calling convention
// (-V=full / -flags handshakes, or a single *.cfg argument). Analyzer
// selection works like the x/tools multichecker: pass -keytaint,
// -detrand, ... to run a subset; with no analyzer flags, all run.
//
// Standalone exit codes: 0 clean, 1 findings, 2 driver error — so CI
// can distinguish "code has issues" from "the linter itself broke".
// (Vettool mode keeps the vet protocol: findings exit 2.) -json emits
// findings as a JSON array of {file,line,col,analyzer,message,path}
// objects on stdout instead of the human-readable text on stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"qkd/internal/lint"
	"qkd/internal/lint/driver"
	"qkd/internal/lint/unit"
)

func main() {
	args := os.Args[1:]
	if n := len(args); n > 0 {
		last := args[n-1]
		if strings.HasPrefix(args[0], "-V") || args[0] == "-flags" || strings.HasSuffix(last, ".cfg") {
			unit.Main(lint.All()) // never returns
		}
	}

	analyzers := lint.All()
	fs := flag.NewFlagSet("qkdlint", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: qkdlint [-json] [-jobs n] [-reservepair] [-padreuse] [-sentinelcmp] [-atomicfield] [-detrand] [-keytaint] [-lockorder] [packages]")
		fs.PrintDefaults()
	}
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	jobs := fs.Int("jobs", 0, "max packages checked in parallel (0 = GOMAXPROCS)")
	selected := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		selected[a.Name] = fs.Bool(a.Name, false, a.Doc)
	}
	fs.Parse(args)

	var w io.Writer = os.Stderr
	if *jsonOut {
		w = os.Stdout
	}
	n, err := driver.Run(fs.Args(), unit.Enabled(analyzers, selected), w, driver.Options{JSON: *jsonOut, Jobs: *jobs})
	if err != nil {
		fmt.Fprintln(os.Stderr, "qkdlint:", err)
		os.Exit(2)
	}
	if n > 0 {
		os.Exit(1)
	}
}
