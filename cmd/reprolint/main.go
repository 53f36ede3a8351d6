// Command reprolint checks the lock discipline of this repository's RTR and
// ROV layers with static analysis: one check over the loaded packages and the
// call graph built from them, no blocking operation while a mutex is held
// (blockinglock). It is kept because it catches a mutation of the real code
// that the test suite passes (its Doc names the mutation); the invariants the
// suite itself holds — RFC 1982 serial order, slab indices across growth,
// frozen snapshots, goroutine stop paths — it does not check. It is built on
// go/parser and go/types alone, keeping the module dependency-free.
//
// Usage:
//
//	reprolint [packages]
//
// Packages default to ./... relative to the working directory. Findings are
// printed one per line as file:line:col: [check] message. Exit status is 0
// when clean, 1 when findings remain, 2 on load or usage errors.
//
// A finding is suppressed by a directive on its line or the line above:
//
//	//lint:ignore <check>[,<check>] <reason>
//
// The reason is mandatory: an unexplained suppression is itself reported,
// and so is a suppression naming an unregistered check.
package main

import (
	"flag"
	"fmt"
	"os"
)

var analyzers = []*Analyzer{
	blockingLockAnalyzer,
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: reprolint [packages]\n\nChecks:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		os.Exit(2)
	}
	loader, err := NewLoader(wd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		os.Exit(2)
	}

	pkgs, err := loader.Load(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		os.Exit(2)
	}
	findings := runAnalyzers(loader.Fset, pkgs, analyzers)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
