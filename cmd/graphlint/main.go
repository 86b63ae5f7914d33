// Command graphlint is the repo's contract checker: a multichecker over
// the project-specific analyzers in internal/analysis/... that enforce
// the determinism, pooled-lifecycle, snapshot-publication and
// context-flow contracts the compiler cannot see. CI runs it as a
// hard gate; see the README "Static analysis" section.
//
// Usage:
//
//	graphlint [-maporder] [-bitsetrelease] [-atomicswap] [-ctxflow] [packages]
//
// With no analyzer flags every analyzer runs; with one or more flags
// only those run (so one contract can be checked alone, e.g. `graphlint
// -ctxflow ./...`). Packages default to ./... relative to the
// current directory. Exit status is 1 if any finding is reported, 2 on
// a driver error.
package main

import (
	"flag"
	"fmt"
	"os"

	"graphreorder/internal/analysis"
	"graphreorder/internal/analysis/atomicswap"
	"graphreorder/internal/analysis/bitsetrelease"
	"graphreorder/internal/analysis/ctxflow"
	"graphreorder/internal/analysis/maporder"
)

func main() {
	all := []*analysis.Analyzer{
		maporder.Analyzer,
		bitsetrelease.Analyzer,
		atomicswap.Analyzer,
		ctxflow.Analyzer,
	}
	selected := make(map[string]*bool, len(all))
	for _, a := range all {
		selected[a.Name] = flag.Bool(a.Name, false, "run only the "+a.Name+" analyzer (and other explicitly enabled ones)\n"+a.Doc)
	}
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: graphlint [analyzer flags] [packages]\n\nAnalyzers (all run when no flag is given):\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var run []*analysis.Analyzer
	for _, a := range all {
		if *selected[a.Name] {
			run = append(run, a)
		}
	}
	if len(run) == 0 {
		run = all
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphlint:", err)
		os.Exit(2)
	}
	findings, err := analysis.RunAnalyzers(pkgs, run)
	for _, f := range findings {
		fmt.Println(f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphlint:", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "graphlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
