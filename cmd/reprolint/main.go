// Command reprolint enforces this repository's load-bearing invariants with
// static analysis. Six checks, each one function over the loaded packages and
// the call graph built from them: RFC 1982 serial ordering (serialcmp), arena
// slab pointer discipline (arenaptr), snapshot copy-on-write (snapshotwrite),
// no blocking under RTR/ROV locks (blockinglock), consistent lock acquisition
// order (lockorder), and provable stop paths for every goroutine (goroleak).
// It is built on go/parser and go/types alone, keeping the module
// dependency-free.
//
// Usage:
//
//	reprolint [-json] [packages]
//
// Packages default to ./... relative to the working directory. Findings are
// printed one per line as file:line:col: [check] message, or as one JSON
// object per line with -json. Exit status is 0 when clean, 1 when findings
// remain, 2 on load or usage errors.
//
// A finding is suppressed by a directive on its line or the line above:
//
//	//lint:ignore <check>[,<check>] <reason>
//
// The reason is mandatory: an unexplained suppression is itself reported,
// and so is a suppression naming an unregistered check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

var analyzers = []*Analyzer{
	serialCmpAnalyzer,
	arenaPtrAnalyzer,
	snapshotWriteAnalyzer,
	blockingLockAnalyzer,
	lockOrderAnalyzer,
	goroLeakAnalyzer,
}

// jsonFinding is the -json record shape; the field names are part of the CI
// problem-matcher contract in .github/reprolint-problem-matcher.json.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func main() {
	list := flag.Bool("checks", false, "list the registered checks and exit")
	asJSON := flag.Bool("json", false, "emit findings as one JSON object per line")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: reprolint [-json] [packages]\n\nChecks:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

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

	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		if *asJSON {
			enc.Encode(jsonFinding{File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column, Check: f.Check, Message: f.Msg})
		} else {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
